package view

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"interopdb/internal/core"
	"interopdb/internal/expr"
	"interopdb/internal/fixture"
	"interopdb/internal/object"
	"interopdb/internal/store"
	"interopdb/internal/tm"
	"interopdb/internal/workload"
)

// boundEngine builds the engine over the repaired (conflict-free)
// Figure 1 integration at the given fixture scale, with Ship bound to a
// registry of its two member stores, and returns the stores for tests
// that inspect member state. The repaired spec matters: with the
// original r5 the engine rightly withholds the Proceedings constraints
// (unresolved strict-similarity conflict), so the optimiser has nothing
// to work with — the design loop of the paper repairs the spec first,
// then queries.
func boundEngine(t testing.TB, scale int) (e *Engine, local, remote *store.Store) {
	t.Helper()
	local, remote = fixture.Figure1Stores(fixture.Options{Scale: scale})
	res, err := core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired(), local, remote, 1)
	if err != nil {
		t.Fatalf("Integrate: %v", err)
	}
	reg := store.NewRegistry()
	for _, st := range []*store.Store{local, remote} {
		if err := reg.Add(st); err != nil {
			t.Fatal(err)
		}
	}
	e = New(res)
	e.BindStores(reg)
	return e, local, remote
}

// scaledEngine is boundEngine for tests that never look at the member
// stores.
func scaledEngine(t testing.TB, scale int) *Engine {
	t.Helper()
	e, _, _ := boundEngine(t, scale)
	return e
}

// validateBoth validates the batch with the snapshot key index and with
// the reference extent scan, returning both rejection lists.
func validateBoth(t *testing.T, e *Engine, ops []Mutation) (indexed, scan []Rejection) {
	t.Helper()
	defer func() { e.UseIndexes = true }()
	for _, idx := range []bool{true, false} {
		e.UseIndexes = idx
		rejs, _, err := e.Validate(context.Background(), ops)
		if err != nil {
			t.Fatalf("Validate (UseIndexes=%v): %v", idx, err)
		}
		if idx {
			indexed = rejs
		} else {
			scan = rejs
		}
	}
	return indexed, scan
}

// runBoth runs the query on the indexed+compiled path and the pure-scan
// reference path and checks rows and constraint stats agree.
func runBoth(t *testing.T, e *Engine, q Query) (Stats, Stats) {
	t.Helper()
	e.UseIndexes = true
	fastRows, fastStats, fastErr := e.Run(q)
	e.UseIndexes = false
	scanRows, scanStats, scanErr := e.Run(q)
	e.UseIndexes = true

	if (fastErr == nil) != (scanErr == nil) {
		t.Fatalf("query %v: error divergence: indexed=%v scan=%v", q.Where, fastErr, scanErr)
	}
	if fastErr != nil {
		if fastErr.Error() != scanErr.Error() {
			t.Errorf("query %v: error text divergence: %q vs %q", q.Where, fastErr, scanErr)
		}
		return fastStats, scanStats
	}
	if !reflect.DeepEqual(fastRows, scanRows) {
		t.Errorf("query %v: rows diverge:\nindexed: %v\nscan:    %v", q.Where, fastRows, scanRows)
	}
	if fastStats.PrunedEmpty != scanStats.PrunedEmpty || fastStats.DroppedConjuncts != scanStats.DroppedConjuncts {
		t.Errorf("query %v: constraint stats diverge: %+v vs %+v", q.Where, fastStats, scanStats)
	}
	if fastStats.Scanned > scanStats.Scanned {
		t.Errorf("query %v: indexed path evaluated more rows than the scan: %d > %d",
			q.Where, fastStats.Scanned, scanStats.Scanned)
	}
	return fastStats, scanStats
}

// TestServeDifferentialFigure1 pins the indexed+compiled serving path to
// the pure-scan path over the Figure 1 fixture at several scales:
// identical rows, identical constraint decisions.
func TestServeDifferentialFigure1(t *testing.T) {
	for _, scale := range []int{1, 10, 50} {
		t.Run(fmt.Sprintf("scale=%d", scale), func(t *testing.T) {
			e := scaledEngine(t, scale)
			queries := []Query{
				// Equality on a string attribute (hash index).
				{Class: "Proceedings", Where: expr.MustParse("isbn = 'vldb96'")},
				{Class: "Item", Where: expr.MustParse(fmt.Sprintf("isbn = 'vldb96-c%d'", scale))},
				{Class: "Item", Where: expr.MustParse("isbn = 'no-such-isbn'")},
				// Equality on a boolean attribute.
				{Class: "Proceedings", Where: expr.MustParse("ref? = true")},
				// Range on numeric attributes (ordered index).
				{Class: "Proceedings", Where: expr.MustParse("rating >= 7")},
				{Class: "Item", Where: expr.MustParse("shopprice < 40")},
				{Class: "Item", Where: expr.MustParse("shopprice <= 30 and libprice > 20")},
				// Finite-set membership (hash index union).
				{Class: "Proceedings", Where: expr.MustParse("rating in {5, 8}")},
				// Mixed: index conjuncts + residual (dotted path, contains).
				{Class: "Proceedings", Where: expr.MustParse("rating >= 7 and publisher.name = 'IEEE'")},
				{Class: "Item", Where: expr.MustParse("shopprice < 50 and contains(title, 'Workshop')")},
				// Non-sargable only: compiled predicate over the full extent.
				{Class: "Proceedings", Where: expr.MustParse("publisher.name = 'Springer'")},
				{Class: "Proceedings", Where: expr.MustParse("shopprice - libprice >= 2")},
				// != stays residual.
				{Class: "Proceedings", Where: expr.MustParse("rating != 8")},
				// Projections.
				{Class: "Proceedings", Where: expr.MustParse("rating >= 7"), Select: []string{"title", "rating"}},
				{Class: "Item", Select: []string{"title", "isbn"}},
				// No predicate at all.
				{Class: "Item"},
				{Class: "ProceedingsLike"},
				// Provably empty under the derived constraints.
				{Class: "Proceedings", Where: expr.MustParse("publisher.name = 'IEEE' and ref? = false")},
				// Implied conjunct dropped, remainder index-served.
				{Class: "Proceedings", Where: expr.MustParse("(publisher.name = 'IEEE' implies ref? = true) and rating >= 8")},
				// Ill-typed predicate: both paths must error identically.
				{Class: "Proceedings", Where: expr.MustParse("title + 1 = 2")},
				// Sargable conjunct + ill-typed residual: the narrowed
				// candidate set changes how many rows the error scan
				// touches, but the error itself must still surface.
				{Class: "Proceedings", Where: expr.MustParse("rating >= 100 and title + 1 = 2")},
			}
			for _, q := range queries {
				runBoth(t, e, q)
			}

			// The selective equality query must actually prune.
			fast, _ := runBoth(t, e, Query{Class: "Item", Where: expr.MustParse("isbn = 'vldb96'")})
			ext := len(e.res.View.Extent("Item"))
			if fast.IndexHits != 1 {
				t.Errorf("equality query: IndexHits = %d, want 1", fast.IndexHits)
			}
			if fast.CandidateRows >= ext {
				t.Errorf("equality query: CandidateRows = %d, want < extent %d", fast.CandidateRows, ext)
			}
			if fast.Scanned != 1 {
				t.Errorf("equality query: Scanned = %d, want 1", fast.Scanned)
			}
		})
	}
}

// TestServeDifferentialRandomized cross-checks the two paths on a
// generated federation under a seeded random query workload.
func TestServeDifferentialRandomized(t *testing.T) {
	p := workload.DefaultParams()
	p.LocalBooks, p.RemoteBooks = 300, 300
	local, remote := workload.Bibliographic(p)
	res, err := core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired(), local, remote, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := New(res)
	rng := rand.New(rand.NewSource(7))
	classes := []string{"Item", "Proceedings", "Publication", "Monograph"}
	mkConj := func() string {
		switch rng.Intn(7) {
		case 0:
			return fmt.Sprintf("rating >= %d", rng.Intn(10)+1)
		case 1:
			return fmt.Sprintf("rating = %d", rng.Intn(10)+1)
		case 2:
			return fmt.Sprintf("shopprice < %d", 20+rng.Intn(80))
		case 3:
			return fmt.Sprintf("libprice > %d", 20+rng.Intn(80))
		case 4:
			return fmt.Sprintf("isbn = 'isbn-%07d'", rng.Intn(400))
		case 5:
			return fmt.Sprintf("rating in {%d, %d}", rng.Intn(10)+1, rng.Intn(10)+1)
		default:
			return fmt.Sprintf("ref? = %v", rng.Intn(2) == 0)
		}
	}
	for i := 0; i < 200; i++ {
		src := mkConj()
		for k := rng.Intn(3); k > 0; k-- {
			src += " and " + mkConj()
		}
		q := Query{Class: classes[rng.Intn(len(classes))], Where: expr.MustParse(src)}
		runBoth(t, e, q)
	}
}

// TestNullConstantStaysResidual: `attr = null` has no parser syntax but
// can be built programmatically; the interpreter evaluates null = null
// to true for declared-but-absent attributes, while indexes hold only
// non-null values — so the planner must leave null-constant conjuncts
// in the residual scan.
func TestNullConstantStaysResidual(t *testing.T) {
	e := scaledEngine(t, 0)
	for _, attr := range []string{"avgAccRate", "authAffil"} {
		q := Query{
			Class: "RefereedPubl",
			Where: expr.Binary{Op: expr.OpEq, L: expr.Ident{Name: attr}, R: expr.Lit{Val: object.Null{}}},
		}
		fast, _ := runBoth(t, e, q)
		if fast.IndexHits != 0 {
			t.Errorf("%s = null must not be index-served: %+v", attr, fast)
		}
	}
}

// TestKeyIndexValidate pins insert validation's O(1) key-index probe to
// the reference extent scan: Validate must return identical rejections —
// repair holder IDs included — with UseIndexes on and off, across batch
// interactions that move keys (deletes freeing them, updates claiming
// them, staged inserts) and across a shipped commit.
func TestKeyIndexValidate(t *testing.T) {
	e := scaledEngine(t, 3)
	ctx := context.Background()
	dupOf := func(isbn string) map[string]object.Value {
		return map[string]object.Value{
			"title": object.Str("T"), "isbn": object.Str(isbn),
			"publisher": object.Ref{DB: "Bookseller", OID: 2}, // ACM
			"shopprice": object.Real(10), "libprice": object.Real(5),
			"ref?": object.Bool(true), "rating": object.Int(8),
		}
	}
	insert := func(isbn string) Mutation {
		return Mutation{Kind: MutInsert, Class: "Item", Attrs: dupOf(isbn)}
	}
	// keyHolders lists, per key rejection, the view ID its repair names
	// (0: the holder is a staged insert, which has no ID to delete).
	keyHolders := func(rejs []Rejection) []int {
		var out []int
		for _, r := range rejs {
			if _, ok := r.Constraint.Expr.(expr.Key); !ok {
				continue
			}
			id := 0
			if len(r.Repairs) > 0 {
				id = r.Repairs[0].ID
			}
			out = append(out, id)
		}
		return out
	}
	check := func(name string, ops []Mutation, want []int) {
		t.Helper()
		indexed, scan := validateBoth(t, e, ops)
		if !reflect.DeepEqual(indexed, scan) {
			t.Errorf("%s: indexed and scan rejections differ:\nindexed: %v\nscan:    %v", name, indexed, scan)
		}
		if got := keyHolders(indexed); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: key rejections name holders %v, want %v", name, got, want)
		}
	}

	vldb := findByISBN(t, e, "vldb96")
	wkshp := findByISBN(t, e, "wkshp1")
	mover := findByISBN(t, e, "tp-book")
	check("fresh key", []Mutation{insert("fresh-1")}, nil)
	check("held key", []Mutation{insert("vldb96")}, []int{vldb.ID})
	check("scaled held key", []Mutation{insert("vldb96-c2")}, []int{findByISBN(t, e, "vldb96-c2").ID})
	check("holder deleted earlier in the batch",
		[]Mutation{{Kind: MutDelete, Class: "Item", ID: wkshp.ID}, insert("wkshp1")}, nil)
	check("key claimed by an earlier update", []Mutation{
		{Kind: MutUpdate, Class: "Item", ID: mover.ID, Attrs: map[string]object.Value{"isbn": object.Str("moved-k")}},
		insert("moved-k"),
	}, []int{mover.ID})
	check("two staged inserts on one key", []Mutation{insert("twin"), insert("twin")}, []int{0})

	// Ship a fresh insert; the key index (and the view) must see it. The
	// key constraint lives on Item; the shipped Proceedings object joins
	// the Item extent through its origin chain.
	check("before shipping", []Mutation{insert("shipped-1")}, nil)
	if err := e.Ship(ctx, []Mutation{{Kind: MutInsert, Class: "Proceedings", Attrs: dupOf("shipped-1")}}); err != nil {
		t.Fatalf("Ship: %v", err)
	}
	check("key inserted by a shipped commit", []Mutation{insert("shipped-1")}, []int{findByISBN(t, e, "shipped-1").ID})
	// And the shipped object is served by queries on both paths.
	fast, _ := runBoth(t, e, Query{Class: "Proceedings", Where: expr.MustParse("isbn = 'shipped-1'")})
	if fast.Scanned != 1 {
		t.Errorf("shipped insert not visible to the indexed path: %+v", fast)
	}
}

// TestPinnedSelectShortCircuitOutOfScope documents why Run does not
// serve Select-only queries from constraint-pinned constants when
// q.Where == nil (the "pinned-value short-circuit").
//
// Even when the global constraints entail attr = c for every member of a
// class, emitting c for each row without reading the extent is unsound
// on two counts, both demonstrated here:
//
//  1. Projection omits attributes an object does not carry: remote-only
//     proceedings have no avgAccRate, so their rows must lack the key
//     entirely — a fabricated pinned row would contain it.
//  2. Rows carry stored representations: a constraint may pin an integer
//     value (rating = 8) while the stored value is Real(8.0); they are
//     Equal but render differently, so fabricated rows would not be
//     byte-identical to scanned ones.
//
// The scan therefore remains the semantics even for predicate-free
// queries; the projection loop is cheap (no predicate evaluation) and
// its output is authoritative.
func TestPinnedSelectShortCircuitOutOfScope(t *testing.T) {
	e := scaledEngine(t, 0)
	rows, _, err := e.Run(Query{Class: "Proceedings", Select: []string{"title", "avgAccRate"}})
	if err != nil {
		t.Fatal(err)
	}
	withAttr, withoutAttr := 0, 0
	for _, r := range rows {
		if _, ok := r["avgAccRate"]; ok {
			withAttr++
		} else {
			withoutAttr++
		}
	}
	if withAttr == 0 || withoutAttr == 0 {
		t.Fatalf("fixture should mix members with and without avgAccRate: with=%d without=%d", withAttr, withoutAttr)
	}
}

package view

import (
	"context"
	"strings"
	"testing"

	"interopdb/internal/core"
	"interopdb/internal/expr"
	"interopdb/internal/fixture"
	"interopdb/internal/object"
	"interopdb/internal/store"
	"interopdb/internal/tm"
)

func TestQueryBasic(t *testing.T) {
	e := scaledEngine(t, 0)
	rows, stats, err := e.Run(Query{Class: "Proceedings"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // vldb, caise, wkshp (r5 is approximate in the repaired spec)
		t.Errorf("Proceedings rows = %d, want 3", len(rows))
	}
	if stats.Scanned != 3 || stats.PrunedEmpty {
		t.Errorf("stats = %+v", stats)
	}
	// The approximate rule's virtual superclass holds the r5 candidates.
	rows, _, err = e.Run(Query{Class: "ProceedingsLike"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // vldb, caise, wkshp + sigmod
		t.Errorf("ProceedingsLike rows = %d, want 4", len(rows))
	}
}

func TestQueryPredicate(t *testing.T) {
	e := scaledEngine(t, 0)
	rows, _, err := e.Run(Query{
		Class:  "Proceedings",
		Where:  expr.MustParse("rating >= 7"),
		Select: []string{"title", "rating"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Errorf("rows = %v", rows)
	}
	for _, r := range rows {
		if len(r) > 2 {
			t.Errorf("projection leaked attributes: %v", r)
		}
		f, _ := object.AsFloat(r["rating"])
		if f < 7 {
			t.Errorf("predicate failed: %v", r)
		}
	}
}

// TestQueryPrunedEmpty is the paper's §1 motivation: a subquery known to
// be empty from the derived global constraints is eliminated without
// scanning.
func TestQueryPrunedEmpty(t *testing.T) {
	e := scaledEngine(t, 0)
	// The Figure 1 demo extent is tiny, so the cost gate would (rightly)
	// judge the solver not worth it; disable it to pin the paper's
	// unconditioned pruning behaviour.
	e.CostGate = false
	// Proceedings.oc1 (objective): IEEE implies ref?=true. Asking for
	// IEEE non-refereed proceedings is provably empty.
	q := Query{
		Class: "Proceedings",
		Where: expr.MustParse("publisher.name = 'IEEE' and ref? = false"),
	}
	rows, stats, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.PrunedEmpty {
		t.Errorf("query should be pruned; stats = %+v", stats)
	}
	if stats.Scanned != 0 || len(rows) != 0 {
		t.Errorf("pruned query must not scan: %+v", stats)
	}
	// Without constraints, the same query scans the whole extent.
	e.UseConstraints = false
	_, stats, err = e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PrunedEmpty || stats.Scanned == 0 {
		t.Errorf("unoptimised run should scan: %+v", stats)
	}
}

func TestQueryDropsImpliedConjuncts(t *testing.T) {
	e := scaledEngine(t, 0)
	e.CostGate = false // tiny demo extent: pin unconditioned dropping
	// key isbn propagates; rating bound for ACM comes from the derived
	// constraint. "publisher.name='IEEE' implies ref?=true" is objective,
	// so the conjunct (the whole implication) is implied.
	q := Query{
		Class: "Proceedings",
		Where: expr.MustParse("(publisher.name = 'IEEE' implies ref? = true) and rating >= 1"),
	}
	_, stats, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DroppedConjuncts < 1 {
		t.Errorf("implied conjunct should be dropped: %+v", stats)
	}
}

func TestValidateInsert(t *testing.T) {
	e := scaledEngine(t, 0)
	validateInsert := func(class string, attrs map[string]object.Value) []Rejection {
		t.Helper()
		rejs, _, err := e.Validate(context.Background(), []Mutation{{Kind: MutInsert, Class: class, Attrs: attrs}})
		if err != nil {
			t.Fatal(err)
		}
		return rejs
	}
	// Violates the objective oc1: IEEE but not refereed.
	bad := map[string]object.Value{
		"title": object.Str("Bad"), "isbn": object.Str("new-1"),
		"publisher": object.Ref{DB: "Bookseller", OID: 1}, // IEEE
		"shopprice": object.Real(10), "libprice": object.Real(5),
		"ref?": object.Bool(false), "rating": object.Int(5),
	}
	rejs := validateInsert("Proceedings", bad)
	if len(rejs) == 0 {
		t.Fatal("doomed insert should be rejected before shipping")
	}
	if !strings.Contains(rejs[0].Error(), "implies") {
		t.Errorf("rejection: %v", rejs[0])
	}
	// Duplicate key caught.
	dup := map[string]object.Value{
		"title": object.Str("Dup"), "isbn": object.Str("vldb96"),
		"shopprice": object.Real(10), "libprice": object.Real(5),
	}
	rejs = validateInsert("Item", dup)
	found := false
	for _, r := range rejs {
		if strings.Contains(r.Detail, "duplicate key") {
			found = true
		}
	}
	if !found {
		t.Errorf("duplicate key not caught: %v", rejs)
	}
	// A clean insert passes validation and ships.
	good := map[string]object.Value{
		"title": object.Str("Fine"), "isbn": object.Str("new-2"),
		"publisher": object.Ref{DB: "Bookseller", OID: 2}, // ACM
		"shopprice": object.Real(10), "libprice": object.Real(5),
		"ref?": object.Bool(true), "rating": object.Int(8),
	}
	if rejs := validateInsert("Proceedings", good); len(rejs) != 0 {
		t.Fatalf("valid insert rejected: %v", rejs)
	}
}

// TestValidationPredictsLocalRejection: every insert the validator
// rejects would indeed be rejected by the local transaction manager, and
// every one it accepts commits locally — on the fixture's scenarios.
func TestValidationPredictsLocalRejection(t *testing.T) {
	local, remote := fixture.Figure1Stores(fixture.Options{})
	res, err := core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1Integration(), local, remote, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := New(res)
	reg := store.NewRegistry()
	for _, st := range []*store.Store{local, remote} {
		if err := reg.Add(st); err != nil {
			t.Fatal(err)
		}
	}
	e.BindStores(reg)
	ctx := context.Background()
	cases := []map[string]object.Value{
		{ // violates oc2 (refereed, rating 5)
			"title": object.Str("A"), "isbn": object.Str("n1"),
			"publisher": object.Ref{DB: "Bookseller", OID: 3},
			"shopprice": object.Real(10), "libprice": object.Real(5),
			"ref?": object.Bool(true), "rating": object.Int(5),
		},
		{ // fine
			"title": object.Str("B"), "isbn": object.Str("n2"),
			"publisher": object.Ref{DB: "Bookseller", OID: 3},
			"shopprice": object.Real(10), "libprice": object.Real(5),
			"ref?": object.Bool(false), "rating": object.Int(5),
		},
		{ // violates Item.oc1 — but that constraint is subjective, so the
			// validator passes it and the local manager decides.
			"title": object.Str("C"), "isbn": object.Str("n3"),
			"publisher": object.Ref{DB: "Bookseller", OID: 3},
			"shopprice": object.Real(5), "libprice": object.Real(10),
			"ref?": object.Bool(false), "rating": object.Int(5),
		},
	}
	for i, attrs := range cases {
		ops := []Mutation{{Kind: MutInsert, Class: "Proceedings", Attrs: attrs}}
		rejs, _, err := e.Validate(ctx, ops)
		if err != nil {
			t.Fatal(err)
		}
		err = e.Ship(ctx, ops)
		if len(rejs) > 0 && err == nil {
			t.Errorf("case %d: validator rejected but local manager accepted", i)
		}
		// The converse may differ for subjective constraints (case 2):
		// global validation is necessarily weaker there — that is the
		// paper's point about subjective constraints remaining local.
	}
}

func TestClassesListing(t *testing.T) {
	e := scaledEngine(t, 0)
	cs := e.Classes()
	want := map[string]bool{"Publication": true, "Item": true, "Proceedings": true, "VirtPublisher": true}
	got := map[string]bool{}
	for _, c := range cs {
		got[c] = true
	}
	for w := range want {
		if !got[w] {
			t.Errorf("Classes missing %s: %v", w, cs)
		}
	}
}

func TestQueryErrorPropagates(t *testing.T) {
	e := scaledEngine(t, 0)
	_, _, err := e.Run(Query{Class: "Proceedings", Where: expr.MustParse("title + 1 = 2")})
	if err == nil {
		t.Error("ill-typed predicate should error")
	}
}

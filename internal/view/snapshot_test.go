package view

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"interopdb/internal/expr"
	"interopdb/internal/object"
)

// TestSteadyStateRunCost pins the plan cache's amortization claim: the
// second identical Run performs ZERO logic.Checker queries and ZERO
// expr.Compile calls — the constraint reasoning and compilation are
// paid once per (class, predicate) shape (simplified-integrity-checking
// style) and replayed from the plan cache afterwards.
func TestSteadyStateRunCost(t *testing.T) {
	e := scaledEngine(t, 10)
	queries := []Query{
		{Class: "Item", Where: expr.MustParse("isbn = 'vldb96'")},
		{Class: "Proceedings", Where: expr.MustParse("rating >= 7 and shopprice < 75")},
		{Class: "Proceedings", Where: expr.MustParse("publisher.name = 'IEEE' and ref? = false")},
		{Class: "Item", Where: expr.MustParse("shopprice < 40")},
	}
	// First runs: plan build (solver and compile work allowed).
	for _, q := range queries {
		if _, st, err := e.Run(q); err != nil {
			t.Fatal(err)
		} else if st.PlanCached {
			t.Fatalf("first run of %v claims a cached plan", q.Where)
		}
	}

	checker := e.checker.CacheStats()
	solverBefore := checker.Hits + checker.Misses
	compileBefore := expr.CompileCount()
	engineBefore := e.CacheStats()

	for _, q := range queries {
		_, st, err := e.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if !st.PlanCached {
			t.Errorf("second run of %v missed the plan cache: %+v", q.Where, st)
		}
	}

	checker = e.checker.CacheStats()
	if got := checker.Hits + checker.Misses - solverBefore; got != 0 {
		t.Errorf("steady-state runs issued %d checker queries, want 0", got)
	}
	if got := expr.CompileCount() - compileBefore; got != 0 {
		t.Errorf("steady-state runs compiled %d predicates, want 0", got)
	}
	engineAfter := e.CacheStats()
	if engineAfter.SolverQueries != engineBefore.SolverQueries {
		t.Errorf("engine counted %d planner solver queries on cached runs",
			engineAfter.SolverQueries-engineBefore.SolverQueries)
	}
	if engineAfter.Compiles != engineBefore.Compiles {
		t.Errorf("engine counted %d compiles on cached runs", engineAfter.Compiles-engineBefore.Compiles)
	}
	if got := engineAfter.PlanHits - engineBefore.PlanHits; got != int64(len(queries)) {
		t.Errorf("plan hits = %d, want %d", got, len(queries))
	}
	if engineAfter.PlanHitRate() <= 0 {
		t.Errorf("hit rate not reported: %v", engineAfter)
	}
}

// TestRunTakesNoEngineLock proves Run serves without e.mu: it completes
// while the exclusive lock is held (a Run that touched the lock would
// deadlock; the watchdog turns that into a failure rather than a hang).
func TestRunTakesNoEngineLock(t *testing.T) {
	e := scaledEngine(t, 1)
	q := Query{Class: "Proceedings", Where: expr.MustParse("rating >= 7")}
	if _, _, err := e.Run(q); err != nil { // build the plan first
		t.Fatal(err)
	}

	e.mu.Lock()
	done := make(chan error, 1)
	go func() {
		_, _, err := e.Run(q)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run under held write lock: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run blocked on the engine lock")
	}
	e.mu.Unlock()
}

// runVsReference pins the snapshot/planned path byte-identical to the
// mutex+scan reference: same rows, same error text, same constraint
// decisions.
func runVsReference(t *testing.T, e *Engine, q Query) {
	t.Helper()
	fastRows, fastStats, fastErr := e.Run(q)
	refRows, refStats, refErr := e.runReference(q)
	if (fastErr == nil) != (refErr == nil) {
		t.Fatalf("query %v: error divergence: planned=%v reference=%v", q.Where, fastErr, refErr)
	}
	if fastErr != nil {
		if fastErr.Error() != refErr.Error() {
			t.Errorf("query %v: error text divergence: %q vs %q", q.Where, fastErr, refErr)
		}
		return
	}
	if !reflect.DeepEqual(fastRows, refRows) {
		t.Errorf("query %v: rows diverge:\nplanned:   %v\nreference: %v", q.Where, fastRows, refRows)
	}
	if fastStats.PrunedEmpty != refStats.PrunedEmpty ||
		fastStats.DroppedConjuncts != refStats.DroppedConjuncts ||
		fastStats.ConstraintGated != refStats.ConstraintGated {
		t.Errorf("query %v: constraint decisions diverge: %+v vs %+v", q.Where, fastStats, refStats)
	}
}

// TestSnapshotDifferentialReference pins the full planned path (snapshot
// + plan cache + cost gate + indexes + compiled residuals) against the
// locked interpreter scan over the live view, on the Figure 1 fixture at
// several scales. Each query runs twice so both the plan-build and the
// plan-cache-hit paths are compared.
func TestSnapshotDifferentialReference(t *testing.T) {
	for _, scale := range []int{1, 10, 50} {
		t.Run(fmt.Sprintf("scale=%d", scale), func(t *testing.T) {
			e := scaledEngine(t, scale)
			queries := []Query{
				{Class: "Proceedings", Where: expr.MustParse("isbn = 'vldb96'")},
				{Class: "Item", Where: expr.MustParse(fmt.Sprintf("isbn = 'vldb96-c%d'", scale))},
				{Class: "Proceedings", Where: expr.MustParse("ref? = true")},
				{Class: "Proceedings", Where: expr.MustParse("rating >= 7")},
				{Class: "Item", Where: expr.MustParse("shopprice < 40")},
				{Class: "Item", Where: expr.MustParse("shopprice <= 30 and libprice > 20")},
				{Class: "Proceedings", Where: expr.MustParse("rating in {5, 8}")},
				{Class: "Proceedings", Where: expr.MustParse("rating >= 7 and publisher.name = 'IEEE'")},
				{Class: "Proceedings", Where: expr.MustParse("publisher.name = 'Springer'")},
				{Class: "Proceedings", Where: expr.MustParse("shopprice - libprice >= 2")},
				{Class: "Proceedings", Where: expr.MustParse("rating != 8")},
				{Class: "Proceedings", Where: expr.MustParse("rating >= 7"), Select: []string{"title", "rating"}},
				{Class: "Item"},
				{Class: "NoSuchClass"},
				{Class: "Proceedings", Where: expr.MustParse("publisher.name = 'IEEE' and ref? = false")},
				{Class: "Proceedings", Where: expr.MustParse("(publisher.name = 'IEEE' implies ref? = true) and rating >= 8")},
				{Class: "Proceedings", Where: expr.MustParse("title + 1 = 2")},
				{Class: "Proceedings", Where: expr.MustParse("rating >= 100 and title + 1 = 2")},
			}
			for _, q := range queries {
				runVsReference(t, e, q)
				runVsReference(t, e, q) // second pass: plan-cache hit
			}
			// And with the gate off (unconditioned constraint phase).
			e.CostGate = false
			for _, q := range queries {
				runVsReference(t, e, q)
			}
		})
	}
}

// TestSnapshotDifferentialRandomized cross-checks the planned path
// against the reference on a generated federation under a seeded random
// query workload (200 queries), interleaved with mutations so plans are
// exercised across snapshot generations.
func TestSnapshotDifferentialRandomized(t *testing.T) {
	e := scaledEngine(t, 10)
	rng := rand.New(rand.NewSource(41))
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
			return fmt.Sprintf("isbn = 'vldb96-c%d'", rng.Intn(10)+1)
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
		runVsReference(t, e, q)
		if i%20 == 19 {
			// Mutate so later queries plan against a fresh snapshot.
			attrs := map[string]object.Value{
				"title": object.Str(fmt.Sprintf("gen-%d", i)), "isbn": object.Str(fmt.Sprintf("gen-%d", i)),
				"publisher": object.Ref{DB: "Bookseller", OID: 2},
				"shopprice": object.Real(float64(20 + rng.Intn(40))), "libprice": object.Real(10),
			}
			if err := e.Ship(context.Background(), []Mutation{{Kind: MutInsert, Class: "Item", Attrs: attrs}}); err != nil {
				t.Fatalf("mutation %d: %v", i, err)
			}
		}
	}
}

// TestPlanInvalidationOnMutation pins the invalidation rule: a mutation
// of a class republishes its state, so the next identical query replans
// against the new extent and serves the new answer.
func TestPlanInvalidationOnMutation(t *testing.T) {
	e := scaledEngine(t, 1)
	q := Query{Class: "Item", Where: expr.MustParse("isbn = 'inval-1'")}
	rows, _, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("probe object already present: %v", rows)
	}
	if err := e.Ship(context.Background(), []Mutation{{Kind: MutInsert, Class: "Item", Attrs: map[string]object.Value{
		"title": object.Str("inval"), "isbn": object.Str("inval-1"),
		"publisher": object.Ref{DB: "Bookseller", OID: 2},
		"shopprice": object.Real(30), "libprice": object.Real(10),
	}}}); err != nil {
		t.Fatal(err)
	}
	rows, st, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("insert invisible after republish: %v (stats %+v)", rows, st)
	}
	if st.PlanCached {
		t.Errorf("plan survived a mutation of its class: %+v", st)
	}
	// Second run after the republish hits the new plan.
	if _, st, err = e.Run(q); err != nil || !st.PlanCached {
		t.Errorf("replanned query not cached: %+v %v", st, err)
	}
}

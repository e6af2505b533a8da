package view

import (
	"context"
	"reflect"
	"testing"

	"interopdb/internal/expr"
)

// TestPlanExportWarm is the engine-level half of the warm-start
// equivalence guarantee: exporting a worked engine's plan shapes and
// warming a cold engine with them makes the cold engine's first real
// query a plan-cache hit that issues zero solver queries.
func TestPlanExportWarm(t *testing.T) {
	hot := scaledEngine(t, 0)
	queries := []Query{
		{Class: "Proceedings", Where: expr.MustParse("rating >= 7")},
		{Class: "Proceedings", Where: expr.MustParse("publisher.name = 'IEEE' and ref? = false")},
		{Class: "Item", Where: expr.MustParse("shopprice <= 20")},
	}
	var want [][]Row
	for _, q := range queries {
		rows, _, err := hot.Run(q)
		if err != nil {
			t.Fatalf("hot Run(%s): %v", q.Class, err)
		}
		want = append(want, rows)
	}

	data, err := hot.ExportPlans()
	if err != nil {
		t.Fatalf("ExportPlans: %v", err)
	}
	if again, err := hot.ExportPlans(); err != nil || string(again) != string(data) {
		t.Fatalf("ExportPlans not deterministic (err=%v)", err)
	}

	cold := scaledEngine(t, 0)
	warmed, skipped, err := cold.WarmPlans(context.Background(), data)
	if err != nil {
		t.Fatalf("WarmPlans: %v", err)
	}
	if warmed != len(queries) || skipped != 0 {
		t.Fatalf("WarmPlans = (%d warmed, %d skipped), want (%d, 0)", warmed, skipped, len(queries))
	}

	// Warming itself plans (and so queries the solver); what matters is
	// the state afterwards: the first post-warm client query must hit.
	before := cold.CacheStats()
	for i, q := range queries {
		rows, _, err := cold.Run(q)
		if err != nil {
			t.Fatalf("cold Run(%s): %v", q.Class, err)
		}
		if !reflect.DeepEqual(rows, want[i]) {
			t.Fatalf("cold Run(%s) rows diverge from hot engine", q.Class)
		}
	}
	after := cold.CacheStats()
	if hits := after.PlanHits - before.PlanHits; hits != int64(len(queries)) {
		t.Fatalf("post-warm queries recorded %d plan hits, want %d", hits, len(queries))
	}
	if misses := after.PlanMisses - before.PlanMisses; misses != 0 {
		t.Fatalf("post-warm queries recorded %d plan misses, want 0", misses)
	}
	if solver := after.SolverQueries - before.SolverQueries; solver != 0 {
		t.Fatalf("post-warm queries issued %d solver queries, want 0", solver)
	}
}

func TestWarmPlansSkipsForeignShapes(t *testing.T) {
	e := scaledEngine(t, 0)
	// The engine's cost gate is on by default, so a shape recorded with
	// the gate off is foreign, as is one for a class the federation
	// doesn't serve.
	data := []byte(`[
		{"class":"NoSuchClass","pred":` + mustEncodePred(t, "rating >= 7") + `,"gate":true},
		{"class":"Proceedings","pred":` + mustEncodePred(t, "rating >= 7") + `,"gate":false}
	]`)
	warmed, skipped, err := e.WarmPlans(context.Background(), data)
	if err != nil {
		t.Fatalf("WarmPlans: %v", err)
	}
	if warmed != 0 || skipped != 2 {
		t.Fatalf("WarmPlans = (%d warmed, %d skipped), want (0, 2)", warmed, skipped)
	}
	if _, _, err := e.WarmPlans(context.Background(), []byte("{broken")); err == nil {
		t.Fatal("WarmPlans accepted malformed export")
	}
}

func mustEncodePred(t *testing.T, src string) string {
	t.Helper()
	b, err := expr.EncodeNode(expr.MustParse(src))
	if err != nil {
		t.Fatalf("EncodeNode: %v", err)
	}
	return string(b)
}

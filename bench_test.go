package interopdb

// One benchmark per reproduced artifact (DESIGN.md §6): the E-series
// regenerates every worked example and figure of the paper, the B-series
// measures the motivating performance claims on synthetic workloads, and
// the micro-benchmarks cover the substrates. Regenerate the numbers with:
//
//	go test -bench=. -benchmem .
//
// cmd/interopbench prints the same experiments with paper-vs-measured
// annotations (the source of EXPERIMENTS.md).

import (
	"context"
	"testing"

	"interopdb/internal/experiments"
	"interopdb/internal/expr"
	"interopdb/internal/logic"
	"interopdb/internal/object"
	"interopdb/internal/tm"
	"interopdb/internal/view"
	"interopdb/internal/workload"

	"interopdb/internal/core"
	"interopdb/internal/fixture"
)

// benchE runs one E-series scenario per iteration, failing the benchmark
// if the reproduction check fails.
func benchE(b *testing.B, fn func() (experiments.Result, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := fn()
		if err != nil {
			b.Fatal(err)
		}
		if !r.Passed() {
			b.Fatalf("reproduction failed:\n%s", r)
		}
	}
}

func BenchmarkE1_IntroPersonnel(b *testing.B)     { benchE(b, experiments.E1) }
func BenchmarkE2_Figure1Parse(b *testing.B)       { benchE(b, experiments.E2) }
func BenchmarkE3_DerivedConstraints(b *testing.B) { benchE(b, experiments.E3) }
func BenchmarkE4_Conformation(b *testing.B)       { benchE(b, experiments.E4) }
func BenchmarkE5_SubjectivityCheck(b *testing.B)  { benchE(b, experiments.E5) }
func BenchmarkE6_EqualityDerivation(b *testing.B) { benchE(b, experiments.E6) }
func BenchmarkE7_StrictSimCheck(b *testing.B)     { benchE(b, experiments.E7) }
func BenchmarkE8_ApproxSim(b *testing.B)          { benchE(b, experiments.E8) }
func BenchmarkE9_ClassKeyRules(b *testing.B)      { benchE(b, experiments.E9) }
func BenchmarkE10_GlobalLattice(b *testing.B)     { benchE(b, experiments.E10) }
func BenchmarkE11_FullPipeline(b *testing.B)      { benchE(b, experiments.E11) }

// B1: query optimisation with and without derived global constraints.
func BenchmarkB1_QueryOptimization(b *testing.B) {
	p := workload.DefaultParams()
	p.LocalBooks, p.RemoteBooks = 1000, 1000
	local, remote := workload.Bibliographic(p)
	res, err := core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(),
		tm.Figure1IntegrationRepaired(), local, remote, 1)
	if err != nil {
		b.Fatal(err)
	}
	q := view.Query{Class: "Proceedings", Where: expr.MustParse("publisher.name = 'IEEE' and ref? = false")}
	b.Run("withConstraints", func(b *testing.B) {
		e := view.New(res)
		for i := 0; i < b.N; i++ {
			if _, st, err := e.Run(q); err != nil || !st.PrunedEmpty {
				b.Fatalf("expected pruned run: %+v %v", st, err)
			}
		}
	})
	b.Run("baselineDropAll", func(b *testing.B) {
		e := view.New(res)
		e.UseConstraints = false
		for i := 0; i < b.N; i++ {
			if _, st, err := e.Run(q); err != nil || st.PrunedEmpty {
				b.Fatalf("baseline must scan: %+v %v", st, err)
			}
		}
	})
}

// B2: update validation catching doomed subtransactions early.
func BenchmarkB2_TxnValidation(b *testing.B) {
	p := workload.DefaultParams()
	p.LocalBooks, p.RemoteBooks = 500, 500
	local, remote := workload.Bibliographic(p)
	res, err := core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(),
		tm.Figure1IntegrationRepaired(), local, remote, 1)
	if err != nil {
		b.Fatal(err)
	}
	e := view.New(res)
	doomed := map[string]object.Value{
		"title": object.Str("x"), "isbn": object.Str("bench-tx"),
		"publisher": object.Ref{DB: "Bookseller", OID: 1}, // IEEE
		"shopprice": object.Real(30), "libprice": object.Real(25),
		"ref?": object.Bool(false), "rating": object.Int(8),
	}
	ops := []view.Mutation{{Kind: view.MutInsert, Class: "Proceedings", Attrs: doomed}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rejs, _, _ := e.Validate(context.Background(), ops); len(rejs) == 0 {
			b.Fatal("doomed insert not caught")
		}
	}
}

// B3: integration wall time across sizes and overlap fractions, run
// both fully sequential/uncached and with the default worker pool +
// memoized entailment. Compare the seq/par sub-benchmark pairs for the
// parallel speedup; the par runs report the cache hit rate.
func BenchmarkB3_IntegrationScale(b *testing.B) {
	for _, n := range []int{200, 1000, 2000} {
		for _, ov := range []float64{0.1, 0.9} {
			p := workload.DefaultParams()
			p.LocalBooks, p.RemoteBooks = n, n
			p.Overlap = ov
			name := "books=" + itoa(n) + "/overlap=" + ftoa(ov)
			for _, mode := range []struct {
				tag  string
				opts core.Options
			}{
				{"seq", core.Options{Parallelism: 1, NoMemo: true}},
				{"par", core.Options{}},
			} {
				b.Run(name+"/"+mode.tag, func(b *testing.B) {
					var hitRate float64
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						local, remote := workload.Bibliographic(p)
						b.StartTimer()
						res, err := core.IntegrateOptions(tm.Figure1Library(), tm.Figure1Bookseller(),
							tm.Figure1Integration(), local, remote, 1, mode.opts)
						if err != nil {
							b.Fatal(err)
						}
						hitRate = res.Derivation.CacheStats().HitRate()
					}
					b.ReportMetric(100*hitRate, "cache-hit-%")
				})
			}
		}
	}
}

// B4: global-constraint derivation cost against constraint count
// (experiments.B4 itself times sequential and parallel runs and checks
// their reports agree).
func BenchmarkB4_DerivationCost(b *testing.B) {
	for _, k := range []int{4, 16, 64} {
		b.Run("constraints="+itoa(2*k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.B4([]int{k}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Full pipeline over the scaled Figure 1 fixture (fixture.Options.Scale
// grows extents and merged pairs linearly), sequential vs parallel. The
// scale=600 case is crash_boot's member size, where conform and merge
// dominate and their allocations show.
func BenchmarkFixtureScalePipeline(b *testing.B) {
	for _, mode := range []struct {
		tag  string
		opts core.Options
	}{
		{"seq", core.Options{Parallelism: 1, NoMemo: true}},
		{"par", core.Options{}},
	} {
		for _, scale := range []int{50, 600} {
			b.Run("scale="+itoa(scale)+"/"+mode.tag, func(b *testing.B) {
				local, remote := fixture.Figure1Stores(fixture.Options{Scale: scale})
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := core.IntegrateOptions(tm.Figure1Library(), tm.Figure1Bookseller(),
						tm.Figure1Integration(), local, remote, 1, mode.opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// Memoized vs uncached entailment on the repeated-query stream the
// sibling-class integration pattern produces.
func BenchmarkMemoizedEntailment(b *testing.B) {
	prem := []Expr{
		expr.MustParse("ref? = true"),
		expr.MustParse("ref? = true implies rating >= 7"),
	}
	conc := expr.MustParse("rating >= 4")
	types := map[string]object.Type{"rating": object.RangeType{Lo: 1, Hi: 10}}
	b.Run("uncached", func(b *testing.B) {
		c := &logic.Checker{Types: types, NoMemo: true}
		for i := 0; i < b.N; i++ {
			if c.Entails(prem, conc) != logic.Yes {
				b.Fatal("entailment failed")
			}
		}
	})
	b.Run("memoized", func(b *testing.B) {
		c := &logic.Checker{Types: types}
		for i := 0; i < b.N; i++ {
			if c.Entails(prem, conc) != logic.Yes {
				b.Fatal("entailment failed")
			}
		}
		b.ReportMetric(100*c.CacheStats().HitRate(), "cache-hit-%")
	})
}

// --- serving fast path: extent indexes + compiled predicates --------------

// serveEngine builds a query engine over the scaled Figure 1 fixture.
func serveEngine(b *testing.B, scale int) *view.Engine {
	b.Helper()
	local, remote := fixture.Figure1Stores(fixture.Options{Scale: scale})
	res, err := core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(),
		tm.Figure1IntegrationRepaired(), local, remote, 1)
	if err != nil {
		b.Fatal(err)
	}
	return view.New(res)
}

// benchServe times one query with the indexed+compiled fast path against
// the pure interpreter scan on the same engine.
func benchServe(b *testing.B, q view.Query, wantRows int) {
	e := serveEngine(b, 50)
	for _, mode := range []struct {
		tag string
		idx bool
	}{{"indexed", true}, {"scan", false}} {
		b.Run(mode.tag, func(b *testing.B) {
			b.ReportAllocs()
			e.UseIndexes = mode.idx
			// Warm the lazily-built indexes and the entailment memo
			// outside the timed region.
			if _, _, err := e.Run(q); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, _, err := e.Run(q)
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != wantRows {
					b.Fatalf("rows = %d, want %d", len(rows), wantRows)
				}
			}
		})
	}
}

// BenchmarkServeEquality: selective equality query at Scale 50 — the
// hash index answers it with one probe.
func BenchmarkServeEquality(b *testing.B) {
	benchServe(b, view.Query{Class: "Item", Where: expr.MustParse("isbn = 'vldb96-c25'")}, 1)
}

// BenchmarkServeRange: selective range query at Scale 50 — the ordered
// index narrows the candidates, the compiled residual filters them.
func BenchmarkServeRange(b *testing.B) {
	benchServe(b, view.Query{Class: "Proceedings",
		Where: expr.MustParse("rating >= 7 and shopprice < 75")}, 1)
}

// BenchmarkServeParallel: the lock-free claim under load — every
// GOMAXPROCS worker serves the same plan-cached queries from the
// published snapshot concurrently. Run never takes the engine lock, so
// on a multi-core host ns/op drops with the worker count; on the
// single-core CI runner this is a correctness smoke (the workers must
// keep agreeing on the answer).
func BenchmarkServeParallel(b *testing.B) {
	e := serveEngine(b, 50)
	q := view.Query{Class: "Proceedings", Where: expr.MustParse("rating >= 7 and shopprice < 75")}
	rows, _, err := e.Run(q) // warm the plan cache
	if err != nil {
		b.Fatal(err)
	}
	want := len(rows)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rows, _, err := e.Run(q)
			if err != nil {
				b.Fatal(err)
			}
			if len(rows) != want {
				b.Fatalf("rows = %d, want %d", len(rows), want)
			}
		}
	})
}

// BenchmarkServeValidateInsert: duplicate-key insert validation across
// extent sizes, with and without the snapshot key index (a duplicate
// hits the index, so both modes then scan for the holder the repair
// names; the scan stops at the first match).
func BenchmarkServeValidateInsert(b *testing.B) {
	for _, scale := range []int{5, 50} {
		e := serveEngine(b, scale)
		doomed := []view.Mutation{{Kind: view.MutInsert, Class: "Item", Attrs: map[string]object.Value{
			"title": object.Str("dup"), "isbn": object.Str("vldb96"),
			"shopprice": object.Real(10), "libprice": object.Real(5),
		}}}
		for _, mode := range []struct {
			tag string
			idx bool
		}{{"indexed", true}, {"scan", false}} {
			b.Run("scale="+itoa(scale)+"/"+mode.tag, func(b *testing.B) {
				b.ReportAllocs()
				e.UseIndexes = mode.idx
				if rejs, _, _ := e.Validate(context.Background(), doomed); len(rejs) == 0 {
					b.Fatal("duplicate key not caught")
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if rejs, _, _ := e.Validate(context.Background(), doomed); len(rejs) == 0 {
						b.Fatal("duplicate key not caught")
					}
				}
			})
		}
	}
}

// B5: baseline comparison (class-based precision, union-all rejections).
func BenchmarkB5_BaselineComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.B5()
		if err != nil {
			b.Fatal(err)
		}
		if r.ClassBasedPrecision >= 1 {
			b.Fatal("class-based baseline should over-assign")
		}
		if r.UnionAllFalseRej == 0 {
			b.Fatal("union-all should falsely reject merged states")
		}
	}
}

// B6: conflict detection and repair suggestion under injected weakenings.
func BenchmarkB6_ConflictRepair(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.B6()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Conflicts > 0 && r.Suggestions == 0 {
				b.Fatal("conflicts without suggestions")
			}
		}
	}
}

// --- substrate micro-benchmarks -------------------------------------------

func BenchmarkParserFigure1Constraint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expr.Parse("publisher.name = 'IEEE' implies ref? = true"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReasonerEntailment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Reasoner() != logic.Yes {
			b.Fatal("entailment failed")
		}
	}
}

func BenchmarkStoreInsert(b *testing.B) {
	spec := tm.Personnel1()
	tariffs := []object.Value{object.Int(10), object.Int(20)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%10000 == 0 {
			b.StopTimer()
			// Fresh store to bound the key-check extension size.
			s := NewStore(spec)
			b.StartTimer()
			benchStore = s
		}
		_, err := benchStore.Insert("Employee", map[string]object.Value{
			"ssn":        object.Str("s" + itoa(i)),
			"salary":     object.Real(1000),
			"trav_reimb": tariffs[i%2],
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

var benchStore *Store

func BenchmarkEntityResolutionMerge(b *testing.B) {
	p := workload.DefaultParams()
	p.LocalBooks, p.RemoteBooks = 1000, 1000
	local, remote := workload.Bibliographic(p)
	spec := core.MustCompile(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1Integration())
	conf, err := core.Conform(spec, local, remote)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Merge(conf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConformPhase(b *testing.B) {
	local, remote := fixture.Figure1Stores(fixture.Options{})
	spec := core.MustCompile(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1Integration())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Conform(spec, local, remote); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func ftoa(f float64) string {
	switch f {
	case 0.1:
		return "0.1"
	case 0.5:
		return "0.5"
	case 0.9:
		return "0.9"
	default:
		return "x"
	}
}

// BenchmarkB8_MutationThroughput runs the mutation-lifecycle experiment
// once per iteration (one batch vs singleton inserts, delta vs full
// validation) at the base fixture scale.
func BenchmarkB8_MutationThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.B8([]int{1}, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkB10_FederationAttach runs the federation membership-change
// experiment (incremental attach vs full re-integration) at scale 1,
// cross-checking the incremental and from-scratch states each
// iteration; CI smokes it at 1x.
func BenchmarkB10_FederationAttach(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.B10([]int{1}); err != nil {
			b.Fatal(err)
		}
	}
}

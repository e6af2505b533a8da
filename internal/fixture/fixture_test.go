package fixture_test

import (
	"testing"

	"interopdb/internal/core"
	"interopdb/internal/fixture"
	"interopdb/internal/store"
	"interopdb/internal/tm"
)

func countAll(s *store.Store, classes ...string) int {
	n := 0
	for _, c := range classes {
		n += len(s.DirectExtent(c))
	}
	return n
}

var libraryClasses = []string{"Publication", "ScientificPubl", "RefereedPubl", "NonRefereedPubl", "ProfessionalPubl"}
var booksellerClasses = []string{"Publisher", "Item", "Proceedings", "Monograph"}

func TestFigure1StoresDefaults(t *testing.T) {
	local, remote := fixture.Figure1Stores(fixture.Options{})
	if got := countAll(local, libraryClasses...); got != 6 {
		t.Errorf("library objects: got %d, want 6", got)
	}
	// 3 publishers + 3 proceedings + 1 monograph.
	if got := countAll(remote, booksellerClasses...); got != 7 {
		t.Errorf("bookseller objects: got %d, want 7", got)
	}
	for _, s := range []*store.Store{local, remote} {
		if v := s.CheckAll(); len(v) != 0 {
			t.Errorf("%s: fixture violates its own constraints: %v", s.Name(), v)
		}
	}
}

func TestFigure1StoresPriceConflict(t *testing.T) {
	base, baseR := fixture.Figure1Stores(fixture.Options{})
	local, remote := fixture.Figure1Stores(fixture.Options{PriceConflict: true})
	if got, want := countAll(local, libraryClasses...), countAll(base, libraryClasses...)+1; got != want {
		t.Errorf("PriceConflict local: got %d, want %d", got, want)
	}
	if got, want := countAll(remote, booksellerClasses...), countAll(baseR, booksellerClasses...)+1; got != want {
		t.Errorf("PriceConflict remote: got %d, want %d", got, want)
	}
	// Each side's conflict book is locally valid — the conflict only
	// materializes in the trust-fused global state.
	for _, s := range []*store.Store{local, remote} {
		if v := s.CheckAll(); len(v) != 0 {
			t.Errorf("%s: conflict fixture must satisfy local constraints: %v", s.Name(), v)
		}
	}
}

// TestFigure1StoresScale pins the Scale knob's contract: linear extent
// growth (one merged pair, one library-only, one bookseller-only copy
// per step), all constraints intact.
func TestFigure1StoresScale(t *testing.T) {
	base, baseR := fixture.Figure1Stores(fixture.Options{})
	baseL, baseRC := countAll(base, libraryClasses...), countAll(baseR, booksellerClasses...)
	for _, scale := range []int{1, 5, 25} {
		local, remote := fixture.Figure1Stores(fixture.Options{Scale: scale})
		if got, want := countAll(local, libraryClasses...), baseL+2*scale; got != want {
			t.Errorf("scale %d local: got %d, want %d", scale, got, want)
		}
		if got, want := countAll(remote, booksellerClasses...), baseRC+2*scale; got != want {
			t.Errorf("scale %d remote: got %d, want %d", scale, got, want)
		}
		for _, s := range []*store.Store{local, remote} {
			if v := s.CheckAll(); len(v) != 0 {
				t.Fatalf("scale %d: %s violates constraints: %v", scale, s.Name(), v)
			}
		}
	}
}

// TestScaleGrowsMergedObjects checks the knob scales the integration
// workload itself, not just raw extents: every scaled VLDB copy merges.
func TestScaleGrowsMergedObjects(t *testing.T) {
	mergedAt := func(scale int) int {
		local, remote := fixture.Figure1Stores(fixture.Options{Scale: scale})
		res, err := core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(),
			tm.Figure1Integration(), local, remote, 1)
		if err != nil {
			t.Fatal(err)
		}
		merged := 0
		for _, g := range res.View.Objects {
			if g.Merged() {
				merged++
			}
		}
		return merged
	}
	base := mergedAt(0)
	if base == 0 {
		t.Fatal("Figure 1 must merge at least the VLDB proceedings")
	}
	for _, scale := range []int{1, 8} {
		if got, want := mergedAt(scale), base+scale; got != want {
			t.Errorf("scale %d: merged objects got %d, want %d", scale, got, want)
		}
	}
}

func TestPersonnelStores(t *testing.T) {
	db1, db2 := fixture.PersonnelStores()
	if got := len(db1.DirectExtent("Employee")); got != 2 {
		t.Errorf("db1 employees: got %d, want 2", got)
	}
	if got := len(db2.DirectExtent("Employee")); got != 2 {
		t.Errorf("db2 employees: got %d, want 2", got)
	}
	for _, s := range []*store.Store{db1, db2} {
		if v := s.CheckAll(); len(v) != 0 {
			t.Errorf("%s: fixture violates its own constraints: %v", s.Name(), v)
		}
	}
}

// TestFigure1StoresMaxScale pins the documented bound: at MaxScale both
// stores are clean, and one step past it Figure1Stores refuses rather
// than hand out a library that violates Publication.cc2.
func TestFigure1StoresMaxScale(t *testing.T) {
	for _, opt := range []fixture.Options{{Scale: fixture.MaxScale}, {Scale: fixture.MaxScale, PriceConflict: true}} {
		local, remote := fixture.Figure1Stores(opt)
		for _, s := range []*store.Store{local, remote} {
			if v := s.CheckAll(); len(v) != 0 {
				t.Fatalf("%+v: %s violates constraints: %v", opt, s.Name(), v)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Figure1Stores accepted a scale past MaxScale")
		}
	}()
	fixture.Figure1Stores(fixture.Options{Scale: fixture.MaxScale + 1})
}

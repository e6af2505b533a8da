package schema

import (
	"fmt"
	"testing"

	"interopdb/internal/object"
)

// chainSchema builds C0 ← C1 ← … ← C(n-1): every class declares its own
// attribute, and every fifth one overrides x.
func chainSchema(t *testing.T, n int) *Database {
	t.Helper()
	d := NewDatabase("Chain")
	for i := 0; i < n; i++ {
		c := &Class{Name: fmt.Sprintf("C%d", i), Attrs: []Attribute{{fmt.Sprintf("a%d", i), object.TInt}}}
		if i > 0 {
			c.Super = fmt.Sprintf("C%d", i-1)
		}
		if i%5 == 0 {
			c.Attrs = append(c.Attrs, Attribute{"x", object.TInt})
		}
		if err := d.AddClass(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

// brokenSchema builds what Validate refuses: a cycle A → B → C → A with
// a tail D entering it, and Orphan whose superclass is never declared.
func brokenSchema(t *testing.T) *Database {
	t.Helper()
	d := NewDatabase("Broken")
	for _, c := range []*Class{
		{Name: "A", Super: "B", Attrs: []Attribute{{"a", object.TInt}, {"x", object.TInt}}},
		{Name: "B", Super: "C", Attrs: []Attribute{{"b", object.TInt}}},
		{Name: "C", Super: "A", Attrs: []Attribute{{"c", object.TInt}, {"x", object.TString}}},
		{Name: "D", Super: "A", Attrs: []Attribute{{"d", object.TInt}}},
		{Name: "Orphan", Super: "Missing", Attrs: []Attribute{{"o", object.TInt}}},
	} {
		if err := d.AddClass(c); err != nil {
			t.Fatal(err)
		}
	}
	if d.Validate() == nil {
		t.Fatal("Validate accepted a cyclic hierarchy with an unknown superclass")
	}
	return d
}

// checkLatticeAgrees asserts that IsA and ResolveAttr give exactly the
// answers Supers and AllAttrs imply, for every pair of the given names.
func checkLatticeAgrees(t *testing.T, d *Database, classes, attrs []string) {
	t.Helper()
	for _, sub := range classes {
		chain := d.Supers(sub)
		for _, super := range classes {
			want := false
			for _, s := range chain {
				want = want || s == super
			}
			if got := d.IsA(sub, super); got != want {
				t.Errorf("IsA(%s, %s) = %v, Supers(%s) = %v", sub, super, got, sub, chain)
			}
		}
		visible := map[string]Attribute{}
		for _, a := range d.AllAttrs(sub) {
			visible[a.Name] = a
		}
		for _, attr := range attrs {
			wantOwner := ""
			for _, cn := range chain {
				if _, ok := d.classes[cn].Attr(attr); ok {
					wantOwner = cn
					break
				}
			}
			a, owner, ok := d.ResolveAttr(sub, attr)
			va, vok := visible[attr]
			if ok != vok || owner != wantOwner || (ok && (a.Name != va.Name || a.Type != va.Type)) {
				t.Errorf("ResolveAttr(%s, %s) = %v, %q, %v; AllAttrs has %v, %v; nearest owner %q",
					sub, attr, a, owner, ok, va, vok, wantOwner)
			}
		}
	}
}

func TestLatticeWalkDeepChain(t *testing.T) {
	const n = 40
	d := chainSchema(t, n)
	var classes, attrs []string
	for i := 0; i < n; i++ {
		classes = append(classes, fmt.Sprintf("C%d", i))
		attrs = append(attrs, fmt.Sprintf("a%d", i))
	}
	classes = append(classes, "Unknown", "")
	attrs = append(attrs, "x", "nope")
	checkLatticeAgrees(t, d, classes, attrs)
	if !d.IsA("C39", "C0") || d.IsA("C0", "C39") {
		t.Error("deep chain: C39 isa C0 must hold one way only")
	}
	if _, owner, _ := d.ResolveAttr("C39", "x"); owner != "C35" {
		t.Errorf("C39.x resolves on %s, want the nearest override C35", owner)
	}
}

func TestLatticeWalkUnknownAndCyclic(t *testing.T) {
	d := brokenSchema(t)
	classes := []string{"A", "B", "C", "D", "Orphan", "Missing", "Unknown", ""}
	attrs := []string{"a", "b", "c", "d", "o", "x", "nope"}
	checkLatticeAgrees(t, d, classes, attrs)
	if d.IsA("Unknown", "Unknown") {
		t.Error("an undeclared class is not a subclass of itself")
	}
	if !d.IsA("D", "C") || !d.IsA("A", "C") || !d.IsA("C", "B") {
		t.Error("every class on a cycle reaches every other")
	}
	if a, owner, _ := d.ResolveAttr("D", "x"); owner != "A" || a.Type != object.TInt {
		t.Errorf("D.x resolves to %v on %s, want the int on A", a, owner)
	}
}

// TestLatticeWalkAllocates pins IsA and ResolveAttr at zero allocations:
// the integration pipeline calls them per object and per attribute.
func TestLatticeWalkAllocates(t *testing.T) {
	d := libSchema(t)
	var sink bool
	if n := testing.AllocsPerRun(100, func() {
		sink = d.IsA("RefereedPubl", "Publication") && !d.IsA("Publication", "Unknown")
	}); n != 0 {
		t.Errorf("IsA allocates %.1f times per call pair", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		_, _, sink = d.ResolveAttr("RefereedPubl", "title")
		_, _, sink = d.ResolveAttr("RefereedPubl", "nope")
	}); n != 0 {
		t.Errorf("ResolveAttr allocates %.1f times per call pair", n)
	}
	_ = sink
}

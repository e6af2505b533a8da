package core

import (
	"testing"

	"interopdb/internal/fixture"
	"interopdb/internal/object"
	"interopdb/internal/tm"
)

// TestApplyInsert covers the incremental view-growth path a shipped
// insert uses: classification along the origin chain, extent growth, reference
// registration, and the error case.
func TestApplyInsert(t *testing.T) {
	local, remote := fixture.Figure1Stores(fixture.Options{})
	res, err := Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired(), local, remote, 1)
	if err != nil {
		t.Fatal(err)
	}
	v := res.View
	beforeProc := len(v.Extent("Proceedings"))
	beforeItem := len(v.Extent("Item"))
	beforeObjs := len(v.Objects)

	attrs := map[string]object.Value{
		"title": object.Str("Applied"), "isbn": object.Str("applied-1"),
		"shopprice": object.Real(10), "libprice": object.Real(8),
		"ref?": object.Bool(true), "rating": object.Int(8),
	}
	src := object.Ref{DB: "Bookseller", OID: 9999}
	g, err := v.ApplyInsert("Proceedings", attrs, src)
	if err != nil {
		t.Fatal(err)
	}
	if g.ID != beforeObjs+1 {
		t.Errorf("ID = %d, want %d", g.ID, beforeObjs+1)
	}
	// Classified along the origin chain: Proceedings and its super Item.
	if len(v.Extent("Proceedings")) != beforeProc+1 {
		t.Errorf("Proceedings extent = %d, want %d", len(v.Extent("Proceedings")), beforeProc+1)
	}
	if len(v.Extent("Item")) != beforeItem+1 {
		t.Errorf("Item extent = %d, want %d", len(v.Extent("Item")), beforeItem+1)
	}
	if !g.Classes["Proceedings"] || !g.Classes["Item"] {
		t.Errorf("classes = %v, want Proceedings+Item", g.Classes)
	}
	// Both the global identity and the component ref resolve to it.
	if got, ok := v.Deref(g.Identity()); !ok || got != g {
		t.Error("global identity does not deref to the applied object")
	}
	if got, ok := v.Deref(src); !ok || got != g {
		t.Error("component ref does not deref to the applied object")
	}
	// Attrs are copied, not aliased.
	attrs["title"] = object.Str("mutated")
	if got, _ := g.Get("title"); !got.Equal(object.Str("Applied")) {
		t.Errorf("attrs aliased: %v", got)
	}

	if _, err := v.ApplyInsert("NoSuchClass", attrs, src); err == nil {
		t.Error("unknown class should error")
	}
}

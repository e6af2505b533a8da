package store_test

import (
	"encoding/json"
	"errors"
	"slices"
	"testing"

	"interopdb/internal/fixture"
	"interopdb/internal/object"
	"interopdb/internal/store"
)

// byISBN finds one Figure 1 library object by ISBN.
func byISBN(t *testing.T, s *store.Store, isbn string) *store.Obj {
	t.Helper()
	objs := s.FindByAttr("Publication", "isbn", object.Str(isbn))
	if len(objs) != 1 {
		t.Fatalf("%s: %d objects with isbn %s", s.Name(), len(objs), isbn)
	}
	return objs[0]
}

func extentOIDs(s *store.Store, class string) []object.OID {
	var out []object.OID
	for _, o := range s.DirectExtent(class) {
		out = append(out, o.OID())
	}
	return out
}

func snapshotJSON(t *testing.T, s *store.Store) string {
	t.Helper()
	mc, err := store.SnapshotStore(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(mc)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRejectedTxKeepsExtentOrder pins that a rejected batch leaves the
// store exactly as it found it, extent order included: the delete's
// undo puts RefereedPubl #1 back at the head of [#1 #2 #6], not at the
// tail.
func TestRejectedTxKeepsExtentOrder(t *testing.T) {
	lib, _ := fixture.Figure1Stores(fixture.Options{})
	vldb := byISBN(t, lib, "vldb96")
	before, snap := extentOIDs(lib, "RefereedPubl"), snapshotJSON(t, lib)
	if before[0] != vldb.OID() {
		t.Fatalf("fixture order changed: RefereedPubl extent %v", before)
	}
	tx := lib.Begin()
	if err := tx.Delete(vldb.OID()); err != nil {
		t.Fatal(err)
	}
	// ourprice above shopprice violates Publication.oc1.
	if err := tx.Update(byISBN(t, lib, "jacm").OID(), map[string]object.Value{"ourprice": object.Real(99)}); err != nil {
		t.Fatal(err)
	}
	var ve *store.ViolationError
	if err := tx.Commit(); !errors.As(err, &ve) {
		t.Fatalf("commit: err = %v, want a constraint violation", err)
	}
	if after := extentOIDs(lib, "RefereedPubl"); !slices.Equal(after, before) {
		t.Fatalf("rejected batch reordered RefereedPubl: %v, want %v", after, before)
	}
	if got := snapshotJSON(t, lib); got != snap {
		t.Fatal("rejected batch changed the store's snapshot bytes")
	}
}

// TestEnforcedDeleteChecksClassConstraints deletes the three
// low-rated scientific publications one at a time: the first two keep
// ScientificPubl.cc1 (average rating < 4), the third would lift the
// average to 4, so it must be rejected and the object restored in
// place.
func TestEnforcedDeleteChecksClassConstraints(t *testing.T) {
	lib, _ := fixture.Figure1Stores(fixture.Options{})
	for _, isbn := range []string{"trends1", "debull"} {
		if err := lib.Delete(byISBN(t, lib, isbn).OID()); err != nil {
			t.Fatalf("delete %s: %v", isbn, err)
		}
	}
	sigmod := byISBN(t, lib, "sigmod96")
	before, snap := extentOIDs(lib, "RefereedPubl"), snapshotJSON(t, lib)
	var ve *store.ViolationError
	if err := lib.Delete(sigmod.OID()); !errors.As(err, &ve) {
		t.Fatalf("delete sigmod96: err = %v, want ScientificPubl.cc1 violation", err)
	}
	if ve.Violations[0].Class != "ScientificPubl" || ve.Violations[0].Constraint.Name != "cc1" {
		t.Fatalf("violations %v, want ScientificPubl.cc1", ve.Violations)
	}
	if got, ok := lib.Get(sigmod.OID()); !ok || got != sigmod {
		t.Fatal("rejected delete did not restore the object")
	}
	if after := extentOIDs(lib, "RefereedPubl"); !slices.Equal(after, before) {
		t.Fatalf("rejected delete reordered RefereedPubl: %v, want %v", after, before)
	}
	if got := snapshotJSON(t, lib); got != snap {
		t.Fatal("rejected delete changed the store's snapshot bytes")
	}
	if vs := lib.CheckAll(); len(vs) != 0 {
		t.Fatalf("store left inconsistent: %v", vs)
	}
}

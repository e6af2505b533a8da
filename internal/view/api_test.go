package view

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"interopdb/internal/store"
)

// TestWriteAPISurface pins the engine's write surface to Validate and
// Ship over the bound member registry: no exported method may ship to
// (or take) a bare *store.Store, because such a path would bypass the
// circuit breakers, the commit journal and the WAL that Ship enforces.
func TestWriteAPISurface(t *testing.T) {
	typ := reflect.TypeOf(&Engine{})
	bare := reflect.TypeOf(&store.Store{})
	var writes []string
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		if strings.HasPrefix(m.Name, "Ship") || strings.HasPrefix(m.Name, "Validate") {
			writes = append(writes, m.Name)
		}
		for j := 0; j < m.Type.NumIn(); j++ {
			if in := m.Type.In(j); in == bare || (in.Kind() == reflect.Slice && in.Elem() == bare) {
				t.Errorf("exported method %s takes a %s", m.Name, in)
			}
		}
	}
	sort.Strings(writes)
	if want := []string{"Ship", "Validate"}; !reflect.DeepEqual(writes, want) {
		t.Errorf("exported Ship*/Validate* methods = %v, want %v", writes, want)
	}
}

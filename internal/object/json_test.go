package object

import (
	"testing"
)

// jsonSamples covers every value kind, including the nesting the wire
// codec historically lacked (tuples, sets of sets).
func jsonSamples() []Value {
	return []Value{
		Null{},
		Int(0),
		Int(-42),
		Int(1 << 60), // beyond float53: must not round-trip through float64
		Real(0),
		Real(30.0), // renders as "30.0": the textual ambiguity motivating the codec
		Real(0.1),
		Real(-2.5e-8),
		Str(""),
		Str("O'Reilly \"quoted\" — unicode ✓"),
		Bool(true),
		Bool(false),
		Ref{DB: "db1", OID: 7},
		Ref{}, // unqualified ref
		NewSet(),
		NewSet(Int(3), Int(1), Int(2)),
		NewSet(Str("a"), NewSet(Int(1)), Null{}),
		NewTuple(nil),
		NewTuple(map[string]Value{"name": Str("IEEE"), "rating": Int(9)}),
		NewTuple(map[string]Value{"inner": NewTuple(map[string]Value{"s": NewSet(Real(1.5))})}),
	}
}

func TestValueJSONRoundTrip(t *testing.T) {
	for _, v := range jsonSamples() {
		b, err := MarshalValue(v)
		if err != nil {
			t.Fatalf("MarshalValue(%s): %v", v, err)
		}
		got, err := UnmarshalValue(b)
		if err != nil {
			t.Fatalf("UnmarshalValue(%s = %s): %v", v, b, err)
		}
		if got.Kind() != v.Kind() {
			t.Errorf("%s: kind changed %s -> %s", b, v.Kind(), got.Kind())
		}
		if !got.Equal(v) || !v.Equal(got) {
			t.Errorf("%s: round trip changed value %s -> %s", b, v, got)
		}
		if got.String() != v.String() {
			t.Errorf("%s: rendered form changed %q -> %q", b, v.String(), got.String())
		}
	}
}

// TestValueJSONKindExact pins that Int and Real survive as their exact
// kinds even when numerically equal — the property the TM literal
// syntax cannot provide.
func TestValueJSONKindExact(t *testing.T) {
	for _, v := range []Value{Int(30), Real(30)} {
		b, err := MarshalValue(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalValue(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind() != v.Kind() {
			t.Errorf("kind %s decoded as %s", v.Kind(), got.Kind())
		}
	}
}

func TestValueJSONDeterministic(t *testing.T) {
	v := NewTuple(map[string]Value{"b": Int(2), "a": Int(1), "c": NewSet(Int(3), Int(1))})
	first, err := MarshalValue(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		b, err := MarshalValue(v)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != string(first) {
			t.Fatalf("non-deterministic encoding: %s vs %s", first, b)
		}
	}
}

func TestValueJSONStrict(t *testing.T) {
	bad := []string{
		``,
		`{}`,
		`{"t":"frob"}`,
		`{"t":"int"}`,
		`{"t":"real"}`,
		`{"t":"str"}`,
		`{"t":"bool"}`,
		`{"t":"set","elems":[{"t":"nope"}]}`,
		`{"t":"tuple","fields":{"x":{}}}`,
		`[1,2,3]`,
		`"int"`,
	}
	for _, s := range bad {
		if v, err := UnmarshalValue([]byte(s)); err == nil {
			t.Errorf("UnmarshalValue(%q) = %s, want error", s, v)
		}
	}
}

func TestAttrsEqual(t *testing.T) {
	a := map[string]Value{"x": Int(1)}
	cases := []struct {
		b    map[string]Value
		want bool
	}{
		{map[string]Value{"x": Int(1)}, true},
		{map[string]Value{"x": Real(1)}, true}, // numeric cross-kind equality, like Value.Equal
		{map[string]Value{"x": Int(2)}, false},
		{map[string]Value{"y": Int(1)}, false},
		{map[string]Value{}, false},
		{nil, false},
	}
	for _, c := range cases {
		if got := AttrsEqual(a, c.b); got != c.want {
			t.Errorf("AttrsEqual(%v, %v) = %v, want %v", a, c.b, got, c.want)
		}
	}
}

package object

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func TestBinaryCodecRoundTrip(t *testing.T) {
	vals := []Value{
		Null{},
		Int(0), Int(-1), Int(1 << 40), Int(-1 << 63),
		Real(0), Real(-2.5), Real(30),
		Str(""), Str("münchen"),
		Bool(true), Bool(false),
		Ref{DB: "remote", OID: 123456},
		NewSet(Int(3), Str("two"), Null{}, Real(1.5)),
		NewTuple(map[string]Value{"b": Int(1), "a": NewSet(Str("x")), "c": NewTuple(nil)}),
	}
	for _, v := range vals {
		enc := AppendValue(nil, v)
		got, n, err := DecodeValue(enc)
		if err != nil {
			t.Fatalf("%v: decode: %v", v, err)
		}
		if n != len(enc) {
			t.Fatalf("%v: consumed %d of %d bytes", v, n, len(enc))
		}
		if got.Kind() != v.Kind() || !got.Equal(v) {
			t.Fatalf("round trip changed %v (%s) to %v (%s)", v, v.Kind(), got, got.Kind())
		}
		if re := AppendValue(nil, got); !bytes.Equal(re, enc) {
			t.Fatalf("%v: re-encoding differs", v)
		}
	}
}

// TestBinaryCodecRejectsNonCanonical pins the strictness that makes
// every accepted encoding re-encode byte-identically.
func TestBinaryCodecRejectsNonCanonical(t *testing.T) {
	cases := map[string][]byte{
		"overlong int":          {tagInt, 0x80, 0x00},
		"overlong string len":   {tagStr, 0x81, 0x00, 'a'},
		"overlong ref oid":      {tagRef, 0, 0x85, 0x00},
		"set out of order":      {tagSet, 2, tagInt, 4, tagInt, 2},
		"set duplicate":         {tagSet, 2, tagInt, 2, tagInt, 2},
		"set int equals real":   append([]byte{tagSet, 2, tagInt, 2}, AppendValue(nil, Real(1))...),
		"set big ints reversed": append(AppendValue([]byte{tagSet, 2}, Int(1<<53+1)), AppendValue(nil, Int(1<<53))...),
		"set real before int":   append(AppendValue([]byte{tagSet, 2}, Real(2)), AppendValue(nil, Int(2))...),
		"tuple names unsorted":  {tagTuple, 2, 1, 'b', tagNull, 1, 'a', tagNull},
		"tuple names repeated":  {tagTuple, 2, 1, 'a', tagNull, 1, 'a', tagNull},
		"bool payload":          {tagBool, 2},
		"unknown tag":           {99},
		"hostile count":         {tagSet, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		"truncated real":        {tagReal, 1, 2, 3},
	}
	for name, c := range cases {
		if v, _, err := DecodeValue(c); err == nil {
			t.Errorf("%s: decode(%v) = %v, want error", name, c, v)
		}
	}
	deep := bytes.Repeat([]byte{tagSet, 1}, maxValueDepth+1)
	deep = append(deep, tagNull)
	if _, _, err := DecodeValue(deep); err == nil {
		t.Error("decoder accepted nesting beyond maxValueDepth")
	}
}

func TestAttrsCodec(t *testing.T) {
	attrs := map[string]Value{
		"title":   Str("DB Interop"),
		"price":   Real(49.5),
		"count":   Int(3),
		"in":      Bool(true),
		"pub":     Ref{DB: "db2", OID: 12},
		"tags":    NewSet(Str("x"), Str("y")),
		"complex": NewTuple(map[string]Value{"k": Null{}}),
	}
	enc := AppendAttrs(nil, attrs)
	for i := 0; i < 5; i++ {
		if again := AppendAttrs(nil, attrs); !bytes.Equal(again, enc) {
			t.Fatal("attribute encoding is not deterministic")
		}
	}
	got, n, err := DecodeAttrs(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	if !AttrsEqual(got, attrs) {
		t.Fatalf("attrs changed: %v -> %v", attrs, got)
	}
	if m, n, err := DecodeAttrs(AppendAttrs(nil, nil)); err != nil || m != nil || n != 1 {
		t.Fatalf("empty attrs decode to %v, %d, %v", m, n, err)
	}
	unsorted := []byte{2, 1, 'b', tagNull, 1, 'a', tagNull}
	if _, _, err := DecodeAttrs(unsorted); err == nil {
		t.Fatal("unsorted attribute names accepted")
	}
}

// tieValues are distinct values that Compare cannot tell apart, or that
// an order built on Compare alone would rank inconsistently: Ints past
// 2^53 that round to one float64, an Int and its equal Real, signed
// zeros, NaNs with different payloads, mixed-kind sets that Compare
// orders in a cycle, and tuples with the same rendering.
func tieValues() []Value {
	return []Value{
		Null{},
		Int(1 << 53), Int(1<<53 + 1), Int(1<<53 + 2), Real(1 << 53),
		Int(0), Real(0), Real(math.Copysign(0, -1)), Int(-1), Real(-0.5),
		Real(math.NaN()), Real(math.Float64frombits(0x7ff8000000000002)),
		Str("a"), Bool(false), Ref{DB: "x", OID: 1},
		NewSet(Int(1 << 53)), NewSet(Int(1<<53 + 1)), NewSet(Real(1 << 53)),
		NewSet(Int(3), Bool(true)), NewSet(Str("b"), Str("c")), NewSet(Int(5)),
		NewSet(Real(math.NaN())),
		NewTuple(map[string]Value{"a=1,b": Int(2)}),
		NewTuple(map[string]Value{"a": Int(1), "b": Int(2)}),
	}
}

// TestCanonCompareIsTotalOrder pins the property the strict set decoder
// relies on: the order NewSet sorts by is antisymmetric and transitive,
// and ties only values with identical encodings.
func TestCanonCompareIsTotalOrder(t *testing.T) {
	vals := tieValues()
	for _, a := range vals {
		for _, b := range vals {
			ab := cmpSign(canonCompare(a, b))
			if ba := cmpSign(canonCompare(b, a)); ab != -ba {
				t.Fatalf("canonCompare(%v, %v) = %d but reversed = %d", a, b, ab, ba)
			}
			if same := bytes.Equal(AppendValue(nil, a), AppendValue(nil, b)); (ab == 0) != same {
				t.Fatalf("canonCompare(%v, %v) = %d, identical encodings %v", a, b, ab, same)
			}
			for _, c := range vals {
				if ab <= 0 && canonCompare(b, c) <= 0 && canonCompare(a, c) > 0 {
					t.Fatalf("not transitive: %v <= %v <= %v but %v > %v", a, b, c, a, c)
				}
			}
		}
	}
}

func cmpSign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

// TestNewSetRoundTripsThroughCodec checks the decoder accepts every set
// NewSet builds, including sets whose elements tie under Compare.
func TestNewSetRoundTripsThroughCodec(t *testing.T) {
	big := NewSet(Int(1<<53+1), Int(1<<53))
	if big.Len() != 2 || !bytes.Equal(AppendValue(nil, big), AppendValue(nil, NewSet(Int(1<<53), Int(1<<53+1)))) {
		t.Fatalf("NewSet of two ints rounding to one float64: %v, or order depends on input order", big)
	}
	nans := NewSet(Real(math.NaN()), Real(math.NaN()))
	if nans.Len() != 2 {
		t.Fatalf("NewSet(NaN, NaN) = %v; NaN is not Equal to itself, so both stay", nans)
	}
	vals := tieValues()
	sets := []Set{big, nans, NewSet(vals...), NewSet(NewSet(big), NewSet(nans), NewSet(nans))}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		perm := rng.Perm(len(vals))
		elems := make([]Value, 1+rng.Intn(len(vals)))
		for j := range elems {
			elems[j] = vals[perm[j]]
		}
		elems = append(elems, elems[rng.Intn(len(elems))])
		sets = append(sets, NewSet(elems...))
	}
	for _, s := range sets {
		enc := AppendValue(nil, s)
		got, n, err := DecodeValue(enc)
		if err != nil {
			t.Fatalf("NewSet built %v, decoder refused it: %v", s, err)
		}
		if n != len(enc) || got.(Set).Len() != s.Len() {
			t.Fatalf("%v decoded to %v (%d of %d bytes)", s, got, n, len(enc))
		}
		if re := AppendValue(nil, got); !bytes.Equal(re, enc) {
			t.Fatalf("%v: re-encoding differs", s)
		}
	}
}

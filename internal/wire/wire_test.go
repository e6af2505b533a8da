package wire

import (
	"bytes"
	"errors"
	"testing"

	"interopdb/internal/core"
	"interopdb/internal/expr"
	"interopdb/internal/object"
	"interopdb/internal/view"
)

func sampleSet() object.Value {
	return object.NewSet(object.Int(1), object.Str("two"), object.Null{})
}

func sampleTuple() object.Value {
	return object.NewTuple(map[string]object.Value{
		"n":   object.Int(-42),
		"r":   object.Real(3.25),
		"s":   object.Str("münchen"),
		"b":   object.Bool(true),
		"ref": object.Ref{DB: "db1", OID: 7},
		"set": sampleSet(),
	})
}

func valueEqual(a, b object.Value) bool { return a.Equal(b) }

// Value tag bytes of the binary value codec (object/codec.go), for
// hand-built corrupt inputs: values travel inside wire bodies in exactly
// that encoding.
const (
	tagNull byte = 1 + iota
	tagInt
	tagReal
	tagStr
	tagBool
	tagRef
	tagSet
	tagTuple
)

func TestValueRoundTrip(t *testing.T) {
	vals := []object.Value{
		object.Null{},
		object.Int(0), object.Int(-1), object.Int(1 << 40),
		object.Real(0), object.Real(-2.5),
		object.Str(""), object.Str("hello"),
		object.Bool(true), object.Bool(false),
		object.Ref{DB: "remote", OID: 123456},
		sampleSet(),
		sampleTuple(),
	}
	for _, v := range vals {
		enc := object.AppendValue(nil, v)
		got, n, err := object.DecodeValue(enc)
		if err != nil {
			t.Fatalf("%v: decode: %v", v, err)
		}
		if n != len(enc) {
			t.Fatalf("%v: consumed %d of %d bytes", v, n, len(enc))
		}
		if !valueEqual(v, got) {
			t.Fatalf("round trip changed %v to %v", v, got)
		}
	}
}

func TestValueDecodeRejectsCorrupt(t *testing.T) {
	cases := [][]byte{
		{},                    // empty
		{99},                  // unknown tag
		{tagInt},              // missing varint
		{tagReal, 1, 2, 3},    // short real
		{tagBool},             // missing payload
		{tagBool, 7},          // bad bool payload
		{tagStr, 5, 'a'},      // short string
		{tagSet, 200, 1},      // count exceeds remaining bytes
		{tagTuple, 1, 1, 'a'}, // field name without value
		{tagRef, 3, 'd', 'b'}, // ref missing oid
	}
	for _, c := range cases {
		if _, _, err := object.DecodeValue(c); err == nil {
			t.Errorf("decode(%v) accepted corrupt input", c)
		}
	}
}

func TestRowAndMutationRoundTrip(t *testing.T) {
	row := view.Row{"title": object.Str("a"), "rating": object.Int(9), "extra": sampleTuple()}
	enc := AppendRow(nil, row)
	got, n, err := DecodeRow(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("row decode: %v (n=%d/%d)", err, n, len(enc))
	}
	if len(got) != len(row) || !got["title"].Equal(row["title"]) || !got["rating"].Equal(row["rating"]) {
		t.Fatalf("row round trip changed %v to %v", row, got)
	}

	m := view.Mutation{
		Kind:  view.MutUpdate,
		Class: "Item",
		ID:    -3,
		Attrs: map[string]object.Value{"rating": object.Int(5), "title": object.Str("x")},
	}
	encM := AppendMutation(nil, m)
	gotM, nM, err := DecodeMutation(encM)
	if err != nil || nM != len(encM) {
		t.Fatalf("mutation decode: %v", err)
	}
	if gotM.Kind != m.Kind || gotM.Class != m.Class || gotM.ID != m.ID || !object.AttrsEqual(gotM.Attrs, m.Attrs) {
		t.Fatalf("mutation round trip changed %+v to %+v", m, gotM)
	}

	if _, _, err := DecodeMutation([]byte{9, 0}); err == nil {
		t.Fatal("unknown mutation kind accepted")
	}
}

func TestStatsRoundTrip(t *testing.T) {
	s := view.Stats{
		Scanned: 100, PrunedEmpty: true, DroppedConjuncts: 2, IndexHits: 3,
		CandidateRows: 40, PlanCached: true, ConstraintGated: true,
		Degraded: []string{"db2", "db3"},
	}
	enc := AppendQueryStats(nil, s)
	got, n, err := DecodeQueryStats(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("stats decode: %v", err)
	}
	if got.Scanned != s.Scanned || !got.PlanCached || !got.ConstraintGated || !got.PrunedEmpty ||
		got.IndexHits != s.IndexHits || got.CandidateRows != s.CandidateRows ||
		len(got.Degraded) != 2 || got.Degraded[0] != "db2" {
		t.Fatalf("stats round trip changed %+v to %+v", s, got)
	}

	vs := view.ValidateStats{ConstraintsChecked: 7, ConstraintsSkipped: 2, PairsChecked: 30}
	encV := AppendValidateStats(nil, vs)
	gotV, _, err := DecodeValidateStats(encV)
	if err != nil || gotV != vs {
		t.Fatalf("validate stats round trip: %v, %+v", err, gotV)
	}
}

func TestErrBodyRoundTrip(t *testing.T) {
	node, err := expr.Parse("rating >= 1")
	if err != nil {
		t.Fatal(err)
	}
	rejs := []view.Rejection{{
		Constraint: core.GlobalConstraint{Classes: []string{"Item"}, Expr: node},
		Detail:     "rating 0 below floor",
		Repairs: []view.Repair{
			{Kind: view.RepairSetAttr, Attr: "rating", Value: object.Int(1), ID: 4, Text: "set rating to 1"},
			{Kind: view.RepairDeleteTuple, ID: 4, Text: "delete tuple 4"},
		},
	}}
	enc := appendErrBody(nil, CodeRejected, 3, "mutation rejected", rejs)
	got, err := decodeErrBody(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Code != CodeRejected || got.RetryAfter != 3 || got.Msg != "mutation rejected" {
		t.Fatalf("header round trip: %+v", got)
	}
	if len(got.Rejections) != 1 {
		t.Fatalf("rejections: %d", len(got.Rejections))
	}
	r := got.Rejections[0]
	if r.Constraint != node.String() || r.Detail != "rating 0 below floor" || len(r.Repairs) != 2 {
		t.Fatalf("rejection round trip: %+v", r)
	}
	if !r.Repairs[0].HasVal || !r.Repairs[0].Value.Equal(object.Int(1)) || r.Repairs[0].Kind != "set-attr" {
		t.Fatalf("repair round trip: %+v", r.Repairs[0])
	}
	if r.Repairs[1].HasVal {
		t.Fatalf("delete repair grew a value: %+v", r.Repairs[1])
	}
}

func TestFrameRoundTrip(t *testing.T) {
	body := appendQueryReq(nil, "main", "select title from Item where rating >= 7")
	enc := AppendFrame(nil, OpQuery, 99, body)
	f, n, err := DecodeFrame(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("decode: %v", err)
	}
	if f.Op != OpQuery || f.ID != 99 || !bytes.Equal(f.Body, body) {
		t.Fatalf("frame round trip changed (%d,%d)", f.Op, f.ID)
	}
	// beginFrame/finishFrame (the server's single-buffer path) must
	// produce exactly the same bytes as AppendFrame.
	b := beginFrame(nil, OpQuery, 99)
	b = append(b, body...)
	b = finishFrame(b)
	if !bytes.Equal(b, enc) {
		t.Fatal("beginFrame/finishFrame disagrees with AppendFrame")
	}
}

func TestFrameDecodeRejectsCorrupt(t *testing.T) {
	valid := AppendFrame(nil, OpQuery, 1, []byte("body"))
	for i := range valid {
		mut := append([]byte{}, valid...)
		mut[i] ^= 0xFF
		if f, _, err := DecodeFrame(mut); err == nil {
			// Flipping a length byte can only be accepted if it still
			// frames a CRC-valid payload, which a single flip cannot.
			t.Errorf("flip at %d accepted: %+v", i, f)
		}
	}
	if _, _, err := DecodeFrame(valid[:len(valid)-1]); !errors.Is(err, errIncomplete(err)) && err == nil {
		t.Error("truncated frame accepted")
	}
}

// errIncomplete lets the truncation assertion above read naturally:
// any non-nil error is acceptable, we only reject nil.
func errIncomplete(err error) error { return err }

// TestAppendValueAllocs pins the zero-allocation value tagging: with a
// warm buffer, encoding a scalar row costs nothing on the heap.
func TestAppendValueAllocs(t *testing.T) {
	buf := make([]byte, 0, 256)
	row := view.Row{"title": object.Str("snow crash"), "rating": object.Int(9)}
	allocs := testing.AllocsPerRun(100, func() {
		buf = buf[:0]
		buf = AppendRow(buf, row)
	})
	if allocs != 0 {
		t.Fatalf("AppendRow allocated %.1f times per run, want 0", allocs)
	}
}

func BenchmarkAppendRow(b *testing.B) {
	b.ReportAllocs()
	buf := make([]byte, 0, 256)
	row := view.Row{"title": object.Str("snow crash"), "rating": object.Int(9), "isbn": object.Str("0-553-08853-X")}
	for i := 0; i < b.N; i++ {
		buf = AppendRow(buf[:0], row)
	}
}

func BenchmarkFrameEncode(b *testing.B) {
	b.ReportAllocs()
	body := appendQueryReq(nil, "main", "select title from Item where rating >= 7")
	buf := make([]byte, 0, 256)
	for i := 0; i < b.N; i++ {
		buf = beginFrame(buf, OpQuery, uint64(i))
		buf = append(buf, body...)
		buf = finishFrame(buf)
	}
}

func BenchmarkFrameDecode(b *testing.B) {
	b.ReportAllocs()
	enc := AppendFrame(nil, OpRows, 7, appendRowsBody(nil,
		[]view.Row{{"title": object.Str("x"), "rating": object.Int(5)}}, view.Stats{Scanned: 1}))
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeFrame(enc); err != nil {
			b.Fatal(err)
		}
	}
}

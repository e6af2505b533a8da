package store

import (
	"bytes"
	"encoding/binary"
	"testing"

	"interopdb/internal/object"
)

// FuzzWALDecode holds the WAL decoders to the recovery contract on
// arbitrary bytes: never panic, never claim more valid prefix than
// verifies, and for every frame the scan accepts, the body decoder must
// be panic-free too. Seeds cover each record kind, the empty log, torn
// tails and flipped bytes; the corpus under testdata/fuzz extends them
// (its IDBWAL01 entries are logs of the earlier JSON-bodied format,
// which the scan must refuse cleanly).
func FuzzWALDecode(f *testing.F) {
	frame := func(kind byte, lsn uint64, body []byte) []byte {
		return encodeWALFrame(kind, lsn, body)
	}
	log := func(frames ...[]byte) []byte {
		b := []byte(walMagic)
		for _, fr := range frames {
			b = append(b, fr...)
		}
		return b
	}
	commit := EncodeCommitRecord(CommitRecord{Member: "db1", Batch: 1, Ops: []WALOp{
		{Kind: OpInsert, Class: "Item", OID: 3, Attrs: map[string]object.Value{"title": object.Str("x")}},
	}})
	intent, err := EncodeIntentRecord(IntentRecord{Members: []string{"db1", "db2"}, Effects: map[string][]WALOp{
		"db1": {{Kind: OpDelete, Class: "Item", OID: 2}},
	}})
	if err != nil {
		f.Fatal(err)
	}
	resolve := EncodeResolveRecord(ResolveRecord{Batch: 1, Outcome: ResolveCommitted})

	f.Add([]byte{})
	f.Add([]byte(walMagic))
	f.Add(log(frame(WALCommit, 1, commit)))
	f.Add(log(frame(WALIntent, 1, intent), frame(WALCommit, 2, commit), frame(WALResolve, 3, resolve)))
	f.Add(log(frame(WALCommit, 1, commit))[:len(walMagic)+10]) // torn mid-frame
	f.Add(log(frame(99, 7, []byte("opaque body"))))
	corrupted := log(frame(WALCommit, 1, commit))
	corrupted[len(corrupted)-3] ^= 0xFF
	f.Add(corrupted)
	f.Add([]byte("IDBWAL99 not actually a log"))
	f.Add(log(bytes.Repeat([]byte{0xFF}, 32)))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid, damage := ScanWAL(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d out of range [0,%d]", valid, len(data))
		}
		if len(data) > 0 && damage == nil && valid != int64(len(data)) {
			t.Fatalf("no damage reported but valid prefix %d < %d", valid, len(data))
		}
		if damage != nil && damage.Offset+damage.LostBytes != int64(len(data)) {
			t.Fatalf("damage accounting: offset %d + lost %d != %d", damage.Offset, damage.LostBytes, len(data))
		}
		// Every accepted record must re-verify frame-by-frame from its
		// own encoding, and its body must decode without panicking.
		for _, r := range recs {
			re, n, err := DecodeWALFrame(encodeWALFrame(r.Kind, r.LSN, r.Body))
			if err != nil || n != walFrameOverhead+walPayloadOverhead+len(r.Body) {
				t.Fatalf("re-encode of accepted record failed: %v", err)
			}
			if re.Kind != r.Kind || re.LSN != r.LSN || !bytes.Equal(re.Body, r.Body) {
				t.Fatalf("re-encode round trip changed the record")
			}
			_, _ = DecodeWALBody(r.Kind, r.Body)
		}
		// The truncation point must itself be a clean log prefix.
		recs2, valid2, damage2 := ScanWAL(data[:valid])
		if damage2 != nil || valid2 != valid || len(recs2) != len(recs) {
			t.Fatalf("valid prefix does not rescan clean: %v", damage2)
		}
	})
}

// fuzzCheckpointBody is a real small checkpoint body: a Bookseller
// member holding a publisher and a monograph (sets, refs, reals), plus
// two derived sections.
func fuzzCheckpointBody(tb testing.TB) []byte {
	s := newBookseller(tb)
	pub := seedPublisher(tb, s, "ACM")
	s.Enforce = false
	s.MustInsert("Monograph", map[string]object.Value{
		"title": object.Str("TM"), "isbn": object.Str("tm-1"),
		"publisher": object.Ref{DB: s.Name(), OID: pub},
		"authors":   object.NewSet(object.Str("Balsters"), object.Str("de By")),
		"shopprice": object.Real(30), "libprice": object.Real(25),
	})
	var buf bytes.Buffer
	c := &Checkpoint{LSN: 7, Members: []MemberCheckpoint{s.liveSnapshot()}, Derived: map[string][]byte{
		"memo": []byte(`{"v":1}`), "plans": []byte("[]"),
	}}
	if err := encodeCheckpointBody(&buf, c); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzCheckpointDecode holds the checkpoint decoder to the boot
// contract on arbitrary bytes: a checkpoint or an error, never a panic
// and never an allocation a hostile count drives past the input's own
// size, and every accepted body re-encodes byte-identically. The file
// parser (magic, checksum) runs on the same bytes. Seeds: a real small
// body, and truncated, bit-flipped and hostile-count variants of it;
// the corpus under testdata/fuzz extends them.
func FuzzCheckpointDecode(f *testing.F) {
	body := fuzzCheckpointBody(f)
	f.Add(body)
	f.Add(body[:len(body)/2])
	flipped := append([]byte{}, body...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	hostile := binary.AppendUvarint([]byte{7}, 1<<40) // lsn 7, 2^40 members
	f.Add(append(hostile, body[2:]...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if c, err := parseCheckpoint(data); err == nil && c == nil {
			t.Fatal("parseCheckpoint returned neither checkpoint nor error")
		}
		c, err := decodeCheckpointBody(data)
		if err != nil {
			return
		}
		var re bytes.Buffer
		if err := encodeCheckpointBody(&re, c); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), data) {
			t.Fatalf("accepted body re-encodes differently:\n in  %x\n out %x", data, re.Bytes())
		}
	})
}

package store

import (
	"encoding/binary"
	"fmt"

	"interopdb/internal/object"
)

// WAL record bodies, in the binary value codec of internal/object (the
// one the wire protocol uses). The frame layer (wal.go) guarantees
// integrity — length, checksum, LSN — and each body is self-delimiting
// by the frame's length. Decoding is strict and panic-free on
// arbitrary bytes (the frame CRC makes corruption here vanishingly
// unlikely, but the fuzz target holds the decoders to the same standard
// as the frame parser).
//
// Body layouts (str = uvarint-length-prefixed bytes; attrs =
// object.AppendAttrs, names ascending):
//
//	op:      [1B kind][str class][uvarint oid][attrs forward][attrs prev]
//	commit:  [str member][uvarint batch][op...]   (ops run to the end)
//	intent:  [uvarint n][(str member, uvarint nops, op...)...]
//	resolve: [uvarint batch][str outcome]

// OpKind enumerates the mutation kinds a WAL op can carry. The values
// are part of the on-disk format; never renumber.
type OpKind int

const (
	OpInsert OpKind = 1
	OpUpdate OpKind = 2
	OpDelete OpKind = 3
)

// WALOp is one member-local mutation as recorded in commit and intent
// records: the forward change plus enough prior state to verify it
// applied (and, for intent records, to invert it).
type WALOp struct {
	Kind  OpKind
	Class string
	OID   uint64
	Attrs map[string]object.Value
	Prev  map[string]object.Value
}

// minWALOpSize is the shortest op encoding (kind, empty class, one-byte
// OID, two empty attribute maps), which bounds a decoded op count.
const minWALOpSize = 5

// appendWALOp appends one op's encoding.
func appendWALOp(dst []byte, op WALOp) []byte {
	dst = append(dst, byte(op.Kind))
	dst = object.AppendString(dst, op.Class)
	dst = binary.AppendUvarint(dst, op.OID)
	dst = object.AppendAttrs(dst, op.Attrs)
	return object.AppendAttrs(dst, op.Prev)
}

// readWALOp reads and validates one op.
func readWALOp(r *bodyReader) WALOp {
	var op WALOp
	op.Kind = OpKind(r.byte())
	op.Class = r.str()
	op.OID = r.uvarint()
	op.Attrs = r.attrs()
	op.Prev = r.attrs()
	if r.err == nil {
		if err := op.validate(); err != nil {
			r.failf("%v", err)
		}
	}
	return op
}

// validate rejects ops that could not have been produced by the
// recorder — the decoder's share of the "arbitrary bytes never panic,
// never half-apply" contract.
func (op WALOp) validate() error {
	switch op.Kind {
	case OpInsert:
		if op.Class == "" {
			return fmt.Errorf("wal: insert op without class")
		}
	case OpUpdate:
		if len(op.Attrs) == 0 {
			return fmt.Errorf("wal: update op without assignments")
		}
	case OpDelete:
	default:
		return fmt.Errorf("wal: unknown op kind %d", int(op.Kind))
	}
	if op.OID == 0 {
		return fmt.Errorf("wal: op without OID")
	}
	return nil
}

// CommitRecord is the body of a WALCommit record: one member-store
// transaction that committed. Batch links the commit to the routed
// batch's intent record (the intent's LSN); 0 marks a standalone
// commit.
type CommitRecord struct {
	Member string
	Batch  uint64
	Ops    []WALOp
}

// IntentRecord is the body of a WALIntent record, written before the
// first member of a routed batch commits: the commit order and every
// member's forward effects. Recovery uses it to finish (or recognise
// as aborted) a batch whose commit phase the crash interrupted.
type IntentRecord struct {
	Members []string
	Effects map[string][]WALOp
}

// Intent resolution outcomes.
const (
	ResolveCommitted   = "committed"
	ResolveAborted     = "aborted"
	ResolveCompensated = "compensated"
)

// ResolveRecord is the body of a WALResolve record: the named intent
// (by its LSN) reached a terminal outcome. An intent with no resolve
// record is unresolved — the crash caught it mid-flight — and recovery
// decides its fate from the member commit records.
type ResolveRecord struct {
	Batch   uint64
	Outcome string
}

// appendCommitHeader appends a commit record's fixed part; the ops
// follow it to the end of the body. Durable transactions encode their
// ops as they stage them and prepend this header at commit.
func appendCommitHeader(dst []byte, member string, batch uint64) []byte {
	dst = object.AppendString(dst, member)
	return binary.AppendUvarint(dst, batch)
}

// EncodeCommitRecord serialises a commit record body.
func EncodeCommitRecord(r CommitRecord) []byte {
	b := appendCommitHeader(nil, r.Member, r.Batch)
	for _, op := range r.Ops {
		b = appendWALOp(b, op)
	}
	return b
}

// EncodeIntentRecord serialises an intent record body. Effects for a
// member the record does not list are an error: recovery could never
// settle them.
func EncodeIntentRecord(r IntentRecord) ([]byte, error) {
	listed := 0
	b := binary.AppendUvarint(nil, uint64(len(r.Members)))
	for _, m := range r.Members {
		ops, ok := r.Effects[m]
		if ok {
			listed++
		}
		b = object.AppendString(b, m)
		b = binary.AppendUvarint(b, uint64(len(ops)))
		for _, op := range ops {
			b = appendWALOp(b, op)
		}
	}
	if listed != len(r.Effects) {
		return nil, fmt.Errorf("wal: intent record has effects for unlisted members")
	}
	return b, nil
}

// EncodeResolveRecord serialises a resolve record body.
func EncodeResolveRecord(r ResolveRecord) []byte {
	b := binary.AppendUvarint(nil, r.Batch)
	return object.AppendString(b, r.Outcome)
}

// DecodeCommitRecord decodes and validates a commit record body.
func DecodeCommitRecord(body []byte) (CommitRecord, error) {
	r := &bodyReader{b: body}
	rec := CommitRecord{Member: r.str(), Batch: r.uvarint()}
	if r.err == nil && rec.Member == "" {
		r.failf("no member")
	}
	for r.more() {
		rec.Ops = append(rec.Ops, readWALOp(r))
	}
	if r.err != nil {
		return CommitRecord{}, fmt.Errorf("wal: commit record: %w", r.err)
	}
	return rec, nil
}

// DecodeIntentRecord decodes and validates an intent record body.
func DecodeIntentRecord(body []byte) (IntentRecord, error) {
	r := &bodyReader{b: body}
	rec := IntentRecord{Members: make([]string, r.count(2))}
	seen := make(map[string]bool, len(rec.Members))
	for i := range rec.Members {
		m := r.str()
		ops := make([]WALOp, r.count(minWALOpSize))
		for j := range ops {
			ops[j] = readWALOp(r)
		}
		switch {
		case r.err != nil:
		case m == "":
			r.failf("empty member name")
		case seen[m]:
			r.failf("member %s repeated", m)
		case len(ops) > 0:
			if rec.Effects == nil {
				rec.Effects = make(map[string][]WALOp)
			}
			rec.Effects[m] = ops
		}
		seen[m] = true
		rec.Members[i] = m
	}
	r.end()
	if r.err != nil {
		return IntentRecord{}, fmt.Errorf("wal: intent record: %w", r.err)
	}
	return rec, nil
}

// DecodeResolveRecord decodes and validates a resolve record body.
func DecodeResolveRecord(body []byte) (ResolveRecord, error) {
	r := &bodyReader{b: body}
	rec := ResolveRecord{Batch: r.uvarint(), Outcome: r.str()}
	r.end()
	if r.err != nil {
		return ResolveRecord{}, fmt.Errorf("wal: resolve record: %w", r.err)
	}
	if rec.Batch == 0 {
		return ResolveRecord{}, fmt.Errorf("wal: resolve record without batch LSN")
	}
	switch rec.Outcome {
	case ResolveCommitted, ResolveAborted, ResolveCompensated:
	default:
		return ResolveRecord{}, fmt.Errorf("wal: resolve record with unknown outcome %q", rec.Outcome)
	}
	return rec, nil
}

// DecodeWALBody decodes a record body according to its frame kind. The
// single entry point the fuzz target drives: arbitrary (kind, body)
// pairs must yield a typed record or an error, never a panic.
func DecodeWALBody(kind byte, body []byte) (any, error) {
	switch kind {
	case WALCommit:
		return DecodeCommitRecord(body)
	case WALIntent:
		return DecodeIntentRecord(body)
	case WALResolve:
		return DecodeResolveRecord(body)
	default:
		return nil, fmt.Errorf("wal: unknown record kind %d", kind)
	}
}

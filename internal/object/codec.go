package object

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// The binary value codec, shared by the wire protocol (internal/wire),
// the write-ahead log's record bodies and the checkpoint
// (internal/store). It carries the full value model — Int vs Real
// distinguished, references and sets first-class — as one kind-tag
// byte plus a fixed- or varint-sized payload per value. Encoding is
// append-style into caller-owned buffers: no maps, no reflection, no
// intermediate allocations. Decoding is strict: an unknown tag, a
// truncated payload or a non-canonical form (an overlong varint, set
// elements out of canonical order, tuple or attribute names out of
// order) is an error, never a silent Null — so every accepted encoding
// re-encodes to exactly the same bytes.
//
// Value layout (tag byte first):
//
//	null  [1]
//	int   [2][uvarint zig-zag]
//	real  [3][8B IEEE-754 LE]
//	str   [4][uvarint len][bytes]
//	bool  [5][1B]
//	ref   [6][str db][uvarint oid]
//	set   [7][uvarint n][values...]      (canonical element order)
//	tuple [8][uvarint n][(str name, value)...]  (names ascending)
//
// Strings are uvarint-length-prefixed byte runs; integers are zig-zag
// varints so small negatives stay small.

// Value tags. The set mirrors Kind exactly.
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

// maxValueDepth bounds set/tuple nesting on decode, so hostile input
// cannot recurse the decoder through the whole buffer.
const maxValueDepth = 64

// errTruncated marks an encoding that ended mid-value.
var errTruncated = errors.New("object: truncated encoding")

// DecodeUvarint decodes a minimally encoded uvarint, returning it and
// the bytes consumed. Overlong encodings are rejected, so the encoding
// of every accepted number is unique.
func DecodeUvarint(b []byte) (uint64, int, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, 0, errTruncated
	}
	if k > 1 && b[k-1] == 0 {
		return 0, 0, fmt.Errorf("object: overlong varint")
	}
	return n, k, nil
}

// DecodeCount decodes a collection length and bounds it by the bytes
// remaining, so a hostile count cannot drive a huge allocation: every
// element needs at least one encoded byte.
func DecodeCount(b []byte) (int, int, error) {
	n, k, err := DecodeUvarint(b)
	if err != nil {
		return 0, 0, err
	}
	if n > uint64(len(b)-k) {
		return 0, 0, errTruncated
	}
	return int(n), k, nil
}

// AppendString appends a uvarint-length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// DecodeString decodes a string, returning it and the bytes consumed.
func DecodeString(b []byte) (string, int, error) {
	n, k, err := DecodeCount(b)
	if err != nil {
		return "", 0, err
	}
	return string(b[k : k+n]), k + n, nil
}

// AppendValue appends the binary form of v — allocation-free when dst
// has capacity (the wire's row encoding relies on it; pinned by the
// wire package's TestAppendValueAllocs).
func AppendValue(dst []byte, v Value) []byte {
	switch v := v.(type) {
	case Int:
		dst = append(dst, tagInt)
		return binary.AppendVarint(dst, int64(v))
	case Real:
		dst = append(dst, tagReal)
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(float64(v)))
	case Str:
		dst = append(dst, tagStr)
		return AppendString(dst, string(v))
	case Bool:
		if v {
			return append(dst, tagBool, 1)
		}
		return append(dst, tagBool, 0)
	case Ref:
		dst = append(dst, tagRef)
		dst = AppendString(dst, v.DB)
		return binary.AppendUvarint(dst, uint64(v.OID))
	case Set:
		dst = append(dst, tagSet)
		dst = binary.AppendUvarint(dst, uint64(len(v.elems)))
		for _, e := range v.elems {
			dst = AppendValue(dst, e)
		}
		return dst
	case Tuple:
		dst = append(dst, tagTuple)
		dst = binary.AppendUvarint(dst, uint64(len(v.names)))
		for _, n := range v.names {
			dst = AppendString(dst, n)
			dst = AppendValue(dst, v.vals[n])
		}
		return dst
	case Null, nil:
		return append(dst, tagNull)
	default:
		// Unreachable for the value model's closed kind set; encode the
		// rendering so the reader sees something diagnosable.
		dst = append(dst, tagStr)
		return AppendString(dst, v.String())
	}
}

// DecodeValue decodes one value, returning it and the bytes consumed.
func DecodeValue(b []byte) (Value, int, error) {
	return decodeValue(b, 0)
}

func decodeValue(b []byte, depth int) (Value, int, error) {
	if len(b) == 0 {
		return nil, 0, errTruncated
	}
	tag, b2 := b[0], b[1:]
	switch tag {
	case tagNull:
		return Null{}, 1, nil
	case tagInt:
		u, k, err := DecodeUvarint(b2)
		if err != nil {
			return nil, 0, err
		}
		// Zig-zag, as binary.Varint decodes it.
		n := int64(u >> 1)
		if u&1 != 0 {
			n = ^n
		}
		return Int(n), 1 + k, nil
	case tagReal:
		if len(b2) < 8 {
			return nil, 0, errTruncated
		}
		return Real(math.Float64frombits(binary.LittleEndian.Uint64(b2))), 9, nil
	case tagStr:
		s, k, err := DecodeString(b2)
		if err != nil {
			return nil, 0, err
		}
		return Str(s), 1 + k, nil
	case tagBool:
		if len(b2) < 1 {
			return nil, 0, errTruncated
		}
		switch b2[0] {
		case 0:
			return Bool(false), 2, nil
		case 1:
			return Bool(true), 2, nil
		default:
			return nil, 0, fmt.Errorf("object: bool payload %d", b2[0])
		}
	case tagRef:
		db, k, err := DecodeString(b2)
		if err != nil {
			return nil, 0, err
		}
		oid, k2, err := DecodeUvarint(b2[k:])
		if err != nil {
			return nil, 0, err
		}
		return Ref{DB: db, OID: OID(oid)}, 1 + k + k2, nil
	case tagSet, tagTuple:
		if depth >= maxValueDepth {
			return nil, 0, fmt.Errorf("object: values nested deeper than %d", maxValueDepth)
		}
		n, k, err := DecodeCount(b2)
		if err != nil {
			return nil, 0, err
		}
		if tag == tagSet {
			elems, k2, err := decodeSetElems(b2[k:], n, depth+1)
			if err != nil {
				return nil, 0, err
			}
			// Already canonical: NewSet's dedup and sort are no-ops.
			return Set{elems: elems}, 1 + k + k2, nil
		}
		t := Tuple{names: make([]string, 0, n), vals: make(map[string]Value, n)}
		off := k
		for i := 0; i < n; i++ {
			name, k2, err := DecodeString(b2[off:])
			if err != nil {
				return nil, 0, fmt.Errorf("object: tuple field %d: %w", i, err)
			}
			if i > 0 && name <= t.names[i-1] {
				return nil, 0, fmt.Errorf("object: tuple field %q out of order", name)
			}
			off += k2
			v, k3, err := decodeValue(b2[off:], depth+1)
			if err != nil {
				return nil, 0, fmt.Errorf("object: tuple field %q: %w", name, err)
			}
			t.names = append(t.names, name)
			t.vals[name] = v
			off += k3
		}
		return t, 1 + off, nil
	default:
		return nil, 0, fmt.Errorf("object: unknown value tag %d", tag)
	}
}

// decodeSetElems decodes n set elements and holds them to the form
// NewSet produces: each element at or after its predecessor in the
// canonical order and not Equal to it. The order ties only values with
// identical encodings, so a tie is a NaN-bearing value NewSet keeps
// twice (NaN is not Equal to itself); every other duplicate is Equal.
func decodeSetElems(b []byte, n, depth int) ([]Value, int, error) {
	elems := make([]Value, n)
	off := 0
	for i := range elems {
		v, k, err := decodeValue(b[off:], depth)
		if err != nil {
			return nil, 0, fmt.Errorf("object: set elem %d: %w", i, err)
		}
		if i > 0 {
			if c := canonCompare(elems[i-1], v); c > 0 || elems[i-1].Equal(v) {
				return nil, 0, fmt.Errorf("object: set elem %d out of canonical order", i)
			}
		}
		elems[i] = v
		off += k
	}
	return elems, off, nil
}

// AppendAttrs appends an attribute map: [uvarint n][(str name, value)...]
// with names ascending, so equal maps encode to equal bytes.
func AppendAttrs(dst []byte, attrs map[string]Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(attrs)))
	if len(attrs) == 0 {
		return dst
	}
	var stack [16]string
	names := stack[:0]
	for k := range attrs {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		dst = AppendString(dst, k)
		dst = AppendValue(dst, attrs[k])
	}
	return dst
}

// DecodeAttrs decodes an attribute map encoded by AppendAttrs, returning
// it (nil when empty) and the bytes consumed. Names must be strictly
// ascending.
func DecodeAttrs(b []byte) (map[string]Value, int, error) {
	n, off, err := DecodeCount(b)
	if err != nil || n == 0 {
		return nil, off, err
	}
	attrs := make(map[string]Value, n)
	prev := ""
	for i := 0; i < n; i++ {
		name, k, err := DecodeString(b[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("object: attr %d: %w", i, err)
		}
		if i > 0 && name <= prev {
			return nil, 0, fmt.Errorf("object: attr %q out of order", name)
		}
		off += k
		v, k2, err := DecodeValue(b[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("object: attr %q: %w", name, err)
		}
		attrs[name] = v
		off += k2
		prev = name
	}
	return attrs, off, nil
}

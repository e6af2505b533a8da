package store

import (
	"fmt"

	"interopdb/internal/object"
)

// bodyReader walks a binary WAL record or checkpoint body field by
// field, in the value codec of internal/object. The first failure
// sticks: later reads return zero values and counts of zero, so a
// decoder reads a whole structure and checks err once, and the error
// carries the byte offset where decoding stopped.
type bodyReader struct {
	b   []byte
	off int
	err error
}

// failf records the first failure.
func (r *bodyReader) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("at byte %d: %s", r.off, fmt.Sprintf(format, args...))
	}
}

// step records a codec result: k bytes consumed, or the codec's error.
func (r *bodyReader) step(k int, err error) bool {
	if err != nil {
		r.failf("%v", err)
		return false
	}
	r.off += k
	return true
}

// more reports whether unread bytes remain and nothing has failed.
func (r *bodyReader) more() bool { return r.err == nil && r.off < len(r.b) }

// end fails on trailing bytes: every body is exactly one structure.
func (r *bodyReader) end() {
	if r.more() {
		r.failf("%d trailing byte(s)", len(r.b)-r.off)
	}
}

func (r *bodyReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.failf("truncated")
		return 0
	}
	r.off++
	return r.b[r.off-1]
}

func (r *bodyReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	n, k, err := object.DecodeUvarint(r.b[r.off:])
	if !r.step(k, err) {
		return 0
	}
	return n
}

// count reads a collection length whose items each take at least
// minSize bytes, failing when they cannot fit in what is left — so a
// hostile count can never size an allocation beyond the body itself.
func (r *bodyReader) count(minSize int) int {
	if r.err != nil {
		return 0
	}
	n, k, err := object.DecodeCount(r.b[r.off:])
	if !r.step(k, err) {
		return 0
	}
	if n*minSize > len(r.b)-r.off {
		r.failf("count %d exceeds the %d byte(s) left", n, len(r.b)-r.off)
		return 0
	}
	return n
}

func (r *bodyReader) str() string {
	if r.err != nil {
		return ""
	}
	s, k, err := object.DecodeString(r.b[r.off:])
	if !r.step(k, err) {
		return ""
	}
	return s
}

func (r *bodyReader) attrs() map[string]object.Value {
	if r.err != nil {
		return nil
	}
	a, k, err := object.DecodeAttrs(r.b[r.off:])
	if !r.step(k, err) {
		return nil
	}
	return a
}

// raw returns the next n bytes, aliasing the body.
func (r *bodyReader) raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b)-r.off {
		r.failf("truncated")
		return nil
	}
	r.off += n
	return r.b[r.off-n : r.off : r.off]
}

package view

import (
	"sort"
	"strings"

	"interopdb/internal/core"
	"interopdb/internal/expr"
	"interopdb/internal/logic"
	"interopdb/internal/object"
)

// The extent-index subsystem: per-class hash indexes on
// equality-restricted attributes, ordered (sorted-slice) indexes on
// range-restricted attributes, and composite-key uniqueness indexes for
// insert validation. Indexes are chosen automatically from the sargable
// fragment logic.ExtractRestriction recognises and built lazily on
// first use — inside the published snapshot's classState, over its
// frozen extent. They double as the planner's per-class statistics:
// bucket and range-window counts feed the cost model's selectivity
// estimates. Mutations never maintain an index in place; publishing a
// snapshot replaces the affected classState wholesale and the next
// query rebuilds on demand (the single invalidation rule of §8).
//
// Index answers are exact mirrors of the scan semantics: only non-null
// stored values are indexed (the interpreter evaluates comparisons and
// membership against null/missing attributes to false), hash probes
// re-check candidate values with Equal to discard collisions, and an
// ordered index declines to serve a probe whose constant is not
// order-comparable with every indexed value — the conjunct then falls
// back to the residual scan, which surfaces the same evaluation error
// the pure scan path would.

// probeKind classifies a sargable conjunct.
type probeKind int

const (
	probeEq probeKind = iota
	probeRange
	probeIn
)

// probe is one index-answerable conjunct of a query predicate.
type probe struct {
	conj expr.Node
	attr string
	kind probeKind
	op   expr.Op      // for probeRange
	val  object.Value // for probeEq and probeRange
	set  *object.Set  // for probeIn
}

// sargableProbe recognises a conjunct the extent indexes can answer: an
// unguarded restriction on a direct (single-segment, stored) attribute.
// Guarded restrictions, dotted paths (they read through references),
// != comparisons and null constants (indexes hold only non-null values,
// but the interpreter evaluates null = null to true) stay in the
// residual predicate.
func sargableProbe(c expr.Node) (probe, bool) {
	r, ok := logic.ExtractRestriction(c)
	if !ok || r.Guard != nil || strings.Contains(r.Path, ".") {
		return probe{}, false
	}
	if r.IsSet() {
		return probe{conj: c, attr: r.Path, kind: probeIn, set: r.Set}, true
	}
	if r.Val == nil || r.Val.Kind() == object.KindNull {
		return probe{}, false
	}
	switch r.Op {
	case expr.OpEq:
		return probe{conj: c, attr: r.Path, kind: probeEq, val: r.Val}, true
	case expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
		return probe{conj: c, attr: r.Path, kind: probeRange, op: r.Op, val: r.Val}, true
	default:
		return probe{}, false
	}
}

// kindClass partitions value kinds into groups that object.Compare can
// totally order among themselves; 0 marks kinds the ordered index never
// holds.
func kindClass(v object.Value) int {
	switch v.Kind() {
	case object.KindInt, object.KindReal:
		return 1
	case object.KindString:
		return 2
	case object.KindBool:
		return 3
	case object.KindRef:
		return 4
	case object.KindSet:
		return 5
	default: // null, tuple: not indexed for ordering
		return 0
	}
}

// eqIndex is a hash index: value hash → ascending extent positions of
// objects holding a non-null value with that hash. ok is false when some
// extent member neither holds nor declares the attribute: for such
// objects the interpreter resolves the name to a same-named constant or
// an unknown-identifier error, not to the stored value, so the index
// declines and the conjunct stays in the residual scan.
type eqIndex struct {
	ok  bool
	pos map[uint64][]int
}

// ordEntry is one ordered-index entry.
type ordEntry struct {
	val object.Value
	pos int
}

// ordIndex is a sorted-slice index over the non-null values of one
// attribute. ok is false when the extent holds values from different
// kind classes (no total order) or when some member neither holds nor
// declares the attribute (see eqIndex): the index then declines every
// probe.
type ordIndex struct {
	ok      bool
	class   int // kindClass shared by all entries; 0 when empty
	entries []ordEntry
}

// keyIndex is the composite-key uniqueness index consumed by insert
// validation (txState.findKeyHolder): a multiplicity count per KeyString
// encoding present in the frozen extent.
type keyIndex struct {
	count map[string]int
}

// eqFor returns (building on first use) the class's hash index on the
// attribute. Concurrent first probes may both build; LoadOrStore keeps
// one, and both are correct.
func (e *Engine) eqFor(s *snapshot, cs *classState, attr string) *eqIndex {
	if v, ok := cs.eq.Load(attr); ok {
		return v.(*eqIndex)
	}
	ix := buildEq(s, cs.ext, attr)
	if v, loaded := cs.eq.LoadOrStore(attr, ix); loaded {
		return v.(*eqIndex)
	}
	return ix
}

// ordFor returns (building on first use) the class's ordered index on
// the attribute.
func (e *Engine) ordFor(s *snapshot, cs *classState, attr string) *ordIndex {
	if v, ok := cs.ord.Load(attr); ok {
		return v.(*ordIndex)
	}
	ix := buildOrd(s, cs.ext, attr)
	if v, loaded := cs.ord.LoadOrStore(attr, ix); loaded {
		return v.(*ordIndex)
	}
	return ix
}

// keyFor returns (building on first use) the class's composite-key
// uniqueness index.
func (e *Engine) keyFor(cs *classState, attrs []string) *keyIndex {
	sig := strings.Join(attrs, "\x00")
	if v, ok := cs.key.Load(sig); ok {
		return v.(*keyIndex)
	}
	ix := buildKey(cs.ext, attrs)
	if v, loaded := cs.key.LoadOrStore(sig, ix); loaded {
		return v.(*keyIndex)
	}
	return ix
}

func buildEq(s *snapshot, ext []*core.GObj, attr string) *eqIndex {
	ix := &eqIndex{ok: true, pos: map[uint64][]int{}}
	for p, g := range ext {
		v, ok := g.Get(attr)
		if !ok {
			if !s.declaresAttr(g, attr) {
				ix.ok = false
				ix.pos = nil
				return ix
			}
			continue // declared-but-absent evaluates to null: never matches
		}
		if v.Kind() == object.KindNull {
			continue
		}
		h := object.Hash(v)
		ix.pos[h] = append(ix.pos[h], p)
	}
	return ix
}

func buildOrd(s *snapshot, ext []*core.GObj, attr string) *ordIndex {
	ix := &ordIndex{ok: true}
	for p, g := range ext {
		v, ok := g.Get(attr)
		if !ok {
			if !s.declaresAttr(g, attr) {
				ix.ok = false
				ix.entries = nil
				return ix
			}
			continue
		}
		if v.Kind() == object.KindNull {
			continue
		}
		kc := kindClass(v)
		if kc == 0 || (ix.class != 0 && kc != ix.class) {
			ix.ok = false
			ix.entries = nil
			return ix
		}
		ix.class = kc
		ix.entries = append(ix.entries, ordEntry{val: v, pos: p})
	}
	sort.SliceStable(ix.entries, func(i, j int) bool {
		c, ok := object.Compare(ix.entries[i].val, ix.entries[j].val)
		return ok && c < 0
	})
	return ix
}

func buildKey(ext []*core.GObj, attrs []string) *keyIndex {
	ix := &keyIndex{count: make(map[string]int, len(ext))}
	for _, g := range ext {
		k, ok := expr.KeyString(g, attrs)
		if !ok {
			continue
		}
		ix.count[k]++
	}
	return ix
}

// serveProbe answers one probe from the snapshot's class indexes, or
// declines (ok=false) when the index cannot mirror the interpreter's
// semantics for it. Probe results are freshly allocated slices.
func (e *Engine) serveProbe(s *snapshot, cs *classState, pr probe) (list []int, ok bool) {
	switch pr.kind {
	case probeEq, probeIn:
		ix := e.eqFor(s, cs, pr.attr)
		if !ix.ok {
			return nil, false
		}
		if pr.kind == probeEq {
			return eqProbe(ix, cs.ext, pr.attr, pr.val), true
		}
		var union []int
		for _, elem := range pr.set.Elems() {
			if elem.Kind() == object.KindNull {
				continue // null never matches a stored value
			}
			union = append(union, eqProbe(ix, cs.ext, pr.attr, elem)...)
		}
		sort.Ints(union)
		return dedupSorted(union), true
	default: // probeRange
		ix := e.ordFor(s, cs, pr.attr)
		if !ix.ok || (len(ix.entries) > 0 && kindClass(pr.val) != ix.class) {
			// No total order with this constant: the residual scan
			// reproduces the interpreter's comparison semantics
			// (including errors on incomparable values).
			return nil, false
		}
		return rangeProbe(ix, pr.op, pr.val), true
	}
}

// probeCount estimates how many extent positions a probe would yield,
// without materialising them: the planner's selectivity statistic.
// Range counts are exact for this snapshot; equality and set-membership
// counts are upper bounds (hash-bucket collisions and duplicate set
// elements inflate them — serveProbe's Equal re-check and dedup would
// discard those), which only ever nudges the cost gate toward running
// the constraint phase. ok=false when the index declines.
func (e *Engine) probeCount(s *snapshot, cs *classState, pr probe) (int, bool) {
	switch pr.kind {
	case probeEq, probeIn:
		ix := e.eqFor(s, cs, pr.attr)
		if !ix.ok {
			return 0, false
		}
		if pr.kind == probeEq {
			return len(ix.pos[object.Hash(pr.val)]), true
		}
		n := 0
		for _, elem := range pr.set.Elems() {
			if elem.Kind() == object.KindNull {
				continue
			}
			n += len(ix.pos[object.Hash(elem)])
		}
		return n, true
	default:
		ix := e.ordFor(s, cs, pr.attr)
		if !ix.ok || (len(ix.entries) > 0 && kindClass(pr.val) != ix.class) {
			return 0, false
		}
		lo, hi := rangeWindow(ix, pr.op, pr.val)
		return hi - lo, true
	}
}

// eqProbe returns the ascending positions whose stored value equals val
// (hash collisions are discarded by re-checking Equal).
func eqProbe(ix *eqIndex, ext []*core.GObj, attr string, val object.Value) []int {
	var out []int
	for _, p := range ix.pos[object.Hash(val)] {
		if v, ok := ext[p].Get(attr); ok && v.Equal(val) {
			out = append(out, p)
		}
	}
	return out
}

// rangeWindow locates the [lo, hi) entry window satisfying value ⊙ c.
func rangeWindow(ix *ordIndex, op expr.Op, c object.Value) (int, int) {
	n := len(ix.entries)
	// lower = first entry with val >= c; upper = first entry with val > c.
	lower := sort.Search(n, func(i int) bool {
		cmp, _ := object.Compare(ix.entries[i].val, c)
		return cmp >= 0
	})
	upper := sort.Search(n, func(i int) bool {
		cmp, _ := object.Compare(ix.entries[i].val, c)
		return cmp > 0
	})
	switch op {
	case expr.OpLt:
		return 0, lower
	case expr.OpLe:
		return 0, upper
	case expr.OpGt:
		return upper, n
	case expr.OpGe:
		return lower, n
	}
	return 0, 0
}

// rangeProbe returns the ascending positions whose stored value
// satisfies value ⊙ c for an ordering comparison.
func rangeProbe(ix *ordIndex, op expr.Op, c object.Value) []int {
	lo, hi := rangeWindow(ix, op, c)
	out := make([]int, 0, hi-lo)
	for _, en := range ix.entries[lo:hi] {
		out = append(out, en.pos)
	}
	sort.Ints(out)
	return out
}

func dedupSorted(in []int) []int {
	out := in[:0]
	for i, x := range in {
		if i == 0 || x != in[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func intersectSorted(a, b []int) []int {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

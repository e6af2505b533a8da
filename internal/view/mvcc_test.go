package view

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"interopdb/internal/core"
	"interopdb/internal/expr"
	"interopdb/internal/object"
)

// Concurrency differential harness for the multi-version snapshot ring
// (DESIGN.md §11). The serial differential batteries (serve_test,
// snapshot_test, mutate_test) pin WHAT each snapshot serves; this file
// pins what concurrent readers may OBSERVE while writers publish:
//
//   - prefix consistency: a reader's pinned sequence never runs
//     backwards, and two pins at the same sequence serve the same state;
//   - batch atomicity: a Ship batch is visible in full or not at all —
//     never a prefix of its inserts;
//   - no torn cross-class reads: an object updated through one Ship call
//     shows the same attribute values from every class extent of one
//     pinned snapshot, even though each class publishes on its own chain;
//   - epoch reclamation: retired class versions are excised as readers
//     unpin (bounded chains under churn, single retained version under a
//     stalled reader, collectable garbage once unreachable).
//
// Everything here runs under -race in CI (the race job covers
// ./internal/view/...).

// stampedClasses returns the global classes that serve g in their
// extents, sorted — the cross-class torn-read probe set. Serial: reads
// the live view.
func stampedClasses(t *testing.T, e *Engine, g *core.GObj) []string {
	t.Helper()
	var out []string
	for cls := range g.Classes {
		for _, m := range e.res.View.Extent(cls) {
			if m.ID == g.ID {
				out = append(out, cls)
				break
			}
		}
	}
	sort.Strings(out)
	if len(out) < 2 {
		t.Fatalf("stamp object g%d is served by %d class(es), need >= 2 for a cross-class probe", g.ID, len(out))
	}
	return out
}

// rate ships a singleton update of a Proceedings object's rating — a
// fork publication (the object is detached and every class extent
// holding it republished).
func rate(e *Engine, id int, rating int64) error {
	return e.Ship(context.Background(), []Mutation{{Kind: MutUpdate, Class: "Proceedings", ID: id,
		Attrs: map[string]object.Value{"rating": object.Int(rating)}}})
}

// findInExt returns the extent member with the given global ID, if any.
func findInExt(ext []*core.GObj, id int) (*core.GObj, bool) {
	for _, g := range ext {
		if g.ID == id {
			return g, true
		}
	}
	return nil, false
}

// TestMVCCPrefixConsistentReaders races randomized readers against a
// writer shipping insert batches and cross-class update stamps, at the
// same scales as the serial differential battery. Readers pin snapshots
// through the engine's own epoch protocol and assert the observation
// contract above; a final serial pass re-checks the end state against
// the mutex+scan reference.
func TestMVCCPrefixConsistentReaders(t *testing.T) {
	for _, scale := range []int{1, 10, 50} {
		t.Run(fmt.Sprintf("scale=%d", scale), func(t *testing.T) {
			mvccStress(t, scale)
		})
	}
}

func mvccStress(t *testing.T, scale int) {
	e := scaledEngine(t, scale)
	// The stamp object: bookseller-only (single-constituent), so each
	// batch commits in one member transaction.
	target := findByISBN(t, e, "caise96")
	probeClasses := stampedClasses(t, e, target)
	titlePrefix := fmt.Sprintf("mvcc-%d-", scale)

	const (
		batches = 40
		batchK  = 3 // inserts per batch: atomicity is meaningless at 1
		readers = 4
	)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	writerErr := make(chan error, 1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		rng := rand.New(rand.NewSource(int64(scale)*104729 + 1))
		for b := 0; b < batches; b++ {
			ops := make([]Mutation, 0, batchK+1)
			for j := 0; j < batchK; j++ {
				ops = append(ops, Mutation{Kind: MutInsert, Class: "Item", Attrs: map[string]object.Value{
					"title":     object.Str(fmt.Sprintf("%s%d", titlePrefix, b)),
					"isbn":      object.Str(fmt.Sprintf("%s%d-%d", titlePrefix, b, j)),
					"publisher": object.Ref{DB: "Bookseller", OID: 2},
					"shopprice": object.Real(float64(20 + rng.Intn(40))),
					"libprice":  object.Real(10),
				}})
			}
			if rng.Intn(2) == 0 {
				// Stamp the probe object inside the same atomic batch: its
				// new rating must appear in every probe class together.
				ops = append(ops, Mutation{Kind: MutUpdate, Class: "Proceedings", ID: target.ID,
					Attrs: map[string]object.Value{"rating": object.Int(int64(7 + b%3))}})
			}
			if err := e.Ship(context.Background(), ops); err != nil {
				writerErr <- fmt.Errorf("batch %d: %w", b, err)
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)*31337 + 7))
			q := Query{Class: "Item", Where: expr.MustParse("shopprice >= 20")}
			var lastSeq uint64
			lastLen := -1
			for done := false; !done; {
				select {
				case <-stop:
					done = true // one final iteration observes the end state
				default:
				}
				if rng.Intn(3) == 0 {
					// Public serving path: concurrent planning, compiled
					// serving and striped cache counters under -race.
					if _, _, err := e.Run(q); err != nil {
						t.Errorf("reader %d: Run: %v", r, err)
						return
					}
					continue
				}
				s, slot := e.pin()
				items := s.class("Item").ext
				// Prefix consistency: sequences never run backwards, the
				// insert-only Item extent never shrinks, and one sequence
				// always serves one state.
				if s.seq < lastSeq {
					t.Errorf("reader %d: pinned sequence went backwards: %d after %d", r, s.seq, lastSeq)
				}
				if s.seq == lastSeq && lastLen >= 0 && len(items) != lastLen {
					t.Errorf("reader %d: two pins at seq %d served %d then %d Items", r, s.seq, lastLen, len(items))
				}
				if s.seq > lastSeq && lastLen > len(items) {
					t.Errorf("reader %d: Item extent shrank %d -> %d across seq %d -> %d",
						r, lastLen, len(items), lastSeq, s.seq)
				}
				lastSeq, lastLen = s.seq, len(items)
				// Batch atomicity: every batch's title group is complete or
				// absent — a torn batch would surface as a partial count.
				counts := map[string]int{}
				for _, g := range items {
					if v, ok := g.Get("title"); ok {
						if str, ok := v.(object.Str); ok && strings.HasPrefix(string(str), titlePrefix) {
							counts[string(str)]++
						}
					}
				}
				for title, n := range counts {
					if n != batchK {
						t.Errorf("reader %d: torn batch at seq %d: %d of %d inserts of %q visible",
							r, s.seq, n, batchK, title)
					}
				}
				// No torn cross-class reads: the stamp object's rating
				// agrees across every class chain of this one snapshot.
				var ratings []object.Value
				for _, cls := range probeClasses {
					g, ok := findInExt(s.class(cls).ext, target.ID)
					if !ok {
						t.Errorf("reader %d: stamp object missing from class %s at seq %d", r, cls, s.seq)
						continue
					}
					if v, ok := g.Get("rating"); ok {
						ratings = append(ratings, v)
					}
				}
				for _, v := range ratings[1:] {
					if !v.Equal(ratings[0]) {
						t.Errorf("reader %d: torn cross-class read at seq %d: ratings %v across classes %v",
							r, s.seq, ratings, probeClasses)
					}
				}
				e.unpin(slot)
			}
		}(r)
	}

	wg.Wait()
	select {
	case err := <-writerErr:
		t.Fatalf("writer: %v", err)
	default:
	}

	// End state: every batch landed, and the serving path still matches
	// the mutex+scan reference byte for byte.
	s, slot := e.pin()
	total := 0
	for _, g := range s.class("Item").ext {
		if v, ok := g.Get("title"); ok {
			if str, ok := v.(object.Str); ok && strings.HasPrefix(string(str), titlePrefix) {
				total++
			}
		}
	}
	e.unpin(slot)
	if total != batches*batchK {
		t.Errorf("end state holds %d harness Items, want %d", total, batches*batchK)
	}
	for _, q := range []Query{
		{Class: "Item", Where: expr.MustParse(fmt.Sprintf("isbn = '%s0-0'", titlePrefix))},
		{Class: "Item", Where: expr.MustParse("shopprice >= 20 and libprice <= shopprice")},
		{Class: "Proceedings", Where: expr.MustParse("rating >= 7")},
	} {
		runVsReference(t, e, q)
	}
}

// TestConcurrentWritersCoalesce races several writers through the
// write lock: every insert must land exactly once (read-your-writes
// through whichever peer's flush covered it), and the ring must be
// fully reclaimed once the last reader unpins.
func TestConcurrentWritersCoalesce(t *testing.T) {
	e := scaledEngine(t, 1)
	const writers, each = 4, 25

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				attrs := map[string]object.Value{
					"title":     object.Str(fmt.Sprintf("coal-%d", w)),
					"isbn":      object.Str(fmt.Sprintf("coal-%d-%d", w, i)),
					"publisher": object.Ref{DB: "Bookseller", OID: 2},
					"shopprice": object.Real(30),
					"libprice":  object.Real(10),
				}
				if err := e.Ship(context.Background(), []Mutation{{Kind: MutInsert, Class: "Item", Attrs: attrs}}); err != nil {
					t.Errorf("writer %d insert %d: %v", w, i, err)
					return
				}
				// Read-your-writes: by the time Ship returns, a flush
				// covering the insert has been installed — own or coalesced.
				s, slot := e.pin()
				_, found := func() (*core.GObj, bool) {
					want := object.Str(fmt.Sprintf("coal-%d-%d", w, i))
					for _, g := range s.class("Item").ext {
						if v, ok := g.Get("isbn"); ok && v.Equal(want) {
							return g, true
						}
					}
					return nil, false
				}()
				e.unpin(slot)
				if !found {
					t.Errorf("writer %d: insert %d not visible in the snapshot its Ship call returned behind", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	rows, _, err := e.Run(Query{Class: "Item", Where: expr.MustParse("shopprice = 30 and libprice = 10")})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < writers*each {
		t.Errorf("served %d coalesce-harness rows, want >= %d", len(rows), writers*each)
	}
	st := e.RingStats()
	if st.PinnedReaders != 0 {
		t.Errorf("pinned readers after quiesce: %d", st.PinnedReaders)
	}
	if st.ChainVersions != 0 || st.DeepClasses != 0 {
		t.Errorf("ring not reclaimed after quiesce: %+v", st)
	}
}

// TestPublicationCoalescing pins the coalescer deterministically: two
// batches staged under one write-lock hold flush as ONE version bump and
// count one coalesced publication.
func TestPublicationCoalescing(t *testing.T) {
	e := scaledEngine(t, 1)
	pre := e.RingStats()

	e.mu.Lock()
	e.stagePublication([]string{"Item"}, nil, false)
	e.stagePublication([]string{"Item"}, nil, false)
	e.mu.Unlock()
	e.ensurePublished()

	post := e.RingStats()
	if post.Seq != pre.Seq+1 {
		t.Errorf("two staged batches bumped the sequence %d -> %d, want one bump", pre.Seq, post.Seq)
	}
	if got := post.Coalesced - pre.Coalesced; got != 1 {
		t.Errorf("coalesced delta = %d, want 1", got)
	}

	// The invariant whenever e.mu is free: nothing pending, snapshot
	// current. A second ensurePublished must be a no-op.
	e.ensurePublished()
	if st := e.RingStats(); st.Seq != post.Seq {
		t.Errorf("idle flush bumped the sequence %d -> %d", post.Seq, st.Seq)
	}
}

// TestEpochReclamationBounded drives sustained mutation against
// pin-holding readers and asserts the ring's reclaim depth stays
// bounded by the epoch invariant — ChainVersions <= readers ×
// DeepClasses at every sample — and drains to zero at quiesce. This is
// the leak test: before epoch reclamation an unbounded chain (or a
// never-truncated ring) would grow linearly with the mutation count.
func TestEpochReclamationBounded(t *testing.T) {
	e := scaledEngine(t, 1)
	target := findByISBN(t, e, "caise96")
	const (
		mutations = 150
		readers   = 3
	)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s, slot := e.pin()
				// Hold the pin across real serving work so publications
				// overlap pinned epochs and chains actually deepen.
				for _, cls := range []string{"Item", "Proceedings"} {
					if ext := s.class(cls).ext; len(ext) == 0 {
						t.Errorf("reader %d: empty %s extent", r, cls)
					}
				}
				e.unpin(slot)
			}
		}(r)
	}

	maxChain := 0
	for i := 0; i < mutations; i++ {
		var err error
		if i%3 == 0 {
			// Fork path: full per-class copies, the expensive retention case.
			err = rate(e, target.ID, int64(7+i%3))
		} else {
			err = e.Ship(context.Background(), []Mutation{{Kind: MutInsert, Class: "Item", Attrs: map[string]object.Value{
				"title":     object.Str("reclaim"),
				"isbn":      object.Str(fmt.Sprintf("reclaim-%d", i)),
				"publisher": object.Ref{DB: "Bookseller", OID: 2},
				"shopprice": object.Real(30),
				"libprice":  object.Real(10),
			}}})
		}
		if err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
		if i%5 == 0 {
			st := e.RingStats()
			if st.ChainVersions > maxChain {
				maxChain = st.ChainVersions
			}
			// The reclaim invariant: each deep class retains at most one
			// resolution version per pinned reader beyond its head.
			if st.ChainVersions > readers*st.DeepClasses {
				t.Fatalf("mutation %d: chain depth %d exceeds the epoch bound %d (readers=%d, deep classes=%d)",
					i, st.ChainVersions, readers*st.DeepClasses, readers, st.DeepClasses)
			}
		}
	}
	close(stop)
	wg.Wait()

	// Quiesce: with no pinned epochs, the next flush truncates every
	// chain back to its head.
	if err := rate(e, target.ID, 8); err != nil {
		t.Fatal(err)
	}
	st := e.RingStats()
	if st.PinnedReaders != 0 {
		t.Errorf("pinned readers after quiesce: %d", st.PinnedReaders)
	}
	if st.ChainVersions != 0 || st.DeepClasses != 0 {
		t.Errorf("ring not fully reclaimed after quiesce: %+v", st)
	}
	if maxChain >= mutations {
		t.Errorf("chain high-water mark %d grew with the mutation count %d: reclamation is not bounding the ring",
			maxChain, mutations)
	}
}

// TestStalledReaderPinsOnlyItsVersion pins the per-pin excision rule: a
// reader stalled at sequence P retains exactly one resolution version
// per class — not the whole ring behind it — while still serving its
// frozen state, and releases everything on unpin.
func TestStalledReaderPinsOnlyItsVersion(t *testing.T) {
	e := scaledEngine(t, 1)
	target := findByISBN(t, e, "caise96")
	probeClasses := stampedClasses(t, e, target)

	s, slot := e.pin()
	g0, ok := findInExt(s.class("Proceedings").ext, target.ID)
	if !ok {
		t.Fatal("stall target missing from the pinned Proceedings extent")
	}
	rating0, _ := g0.Get("rating")

	const updates = 120
	for i := 0; i < updates; i++ {
		if err := rate(e, target.ID, int64(7+i%3)); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}

	st := e.RingStats()
	if st.PinnedReaders != 1 {
		t.Fatalf("pinned readers = %d, want 1 (the stalled pin)", st.PinnedReaders)
	}
	if st.MaxLag != updates {
		t.Errorf("max lag = %d, want %d (one bump per serial update)", st.MaxLag, updates)
	}
	// One retained version per deep class — NOT one per missed update.
	if st.DeepClasses == 0 || st.ChainVersions != st.DeepClasses {
		t.Errorf("stalled reader retains %d versions across %d deep classes, want exactly one each: %+v",
			st.ChainVersions, st.DeepClasses, st)
	}
	if st.ChainVersions >= updates/2 {
		t.Errorf("stalled reader retained %d versions — the ring is growing with the update count", st.ChainVersions)
	}

	// The stalled pin still serves its frozen state, cross-class
	// consistent at its own sequence.
	for _, cls := range probeClasses {
		g, ok := findInExt(s.class(cls).ext, target.ID)
		if !ok {
			t.Fatalf("stall target missing from pinned class %s", cls)
		}
		if v, ok := g.Get("rating"); ok && !v.Equal(rating0) {
			t.Errorf("pinned snapshot's %s rating drifted: %v, want %v", cls, v, rating0)
		}
	}

	e.unpin(slot)
	if err := rate(e, target.ID, 8); err != nil {
		t.Fatal(err)
	}
	st = e.RingStats()
	if st.ChainVersions != 0 || st.DeepClasses != 0 || st.PinnedReaders != 0 {
		t.Errorf("ring not reclaimed after the stalled reader unpinned: %+v", st)
	}
}

// TestRetiredClassStateIsCollectable proves excised versions are real
// garbage: a finalizer set on a retired classState fires once the chain
// is truncated past it and the pin released — no hidden reference from
// the engine, the epoch table or a newer snapshot keeps it alive.
func TestRetiredClassStateIsCollectable(t *testing.T) {
	e := scaledEngine(t, 1)
	target := findByISBN(t, e, "caise96")

	collected := make(chan struct{})
	// Scope the pin so no local in the test frame keeps the state alive.
	func() {
		s, slot := e.pin()
		defer e.unpin(slot)
		cs := s.class("Proceedings")
		if len(cs.ext) == 0 {
			t.Fatal("empty pinned Proceedings extent")
		}
		runtime.SetFinalizer(cs, func(*classState) { close(collected) })
	}()

	// Two fork publications: the first retires the finalized state, the
	// second's reclaim (no pins) excises it from the chain.
	for i := 0; i < 2; i++ {
		if err := rate(e, target.ID, int64(8+i)); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}

	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("retired classState was never collected: something still references an excised version")
}

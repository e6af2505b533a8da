package interopdb

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"interopdb/internal/core"
	"interopdb/internal/logic"
	"interopdb/internal/store"
)

// Crash-safe durability (DESIGN.md §13). A Durability handle owns one
// node's data directory: an append-only checksummed write-ahead log
// plus periodic checkpoints snapshotting the member extents AND the
// derived artifacts — the entailment memo, the derived global
// constraint set, and the plan-cache shapes. A restarted node replays
// `checkpoint + WAL tail` into freshly built member stores, re-derives
// the federation with the imported memo (every solver query a cache
// hit), verifies the re-derived constraints against the persisted set,
// and re-plans the persisted shapes — reaching steady-state plan-hit
// serving without re-running the solver.
//
// The boot protocol, cold and warm alike:
//
//	dur, err := interopdb.OpenDurability(dir, interopdb.DurabilityOptions{})
//	// build + seed the member stores exactly as a cold boot would
//	err = dur.RestoreStores(local, remote)        // checkpoint + WAL replay
//	fed := interopdb.NewFederation(seed, interopdb.PipelineOptions{Memo: dur.Memo()})
//	// Attach the members…
//	info, err := dur.Finish(ctx, fed)             // verify, warm, enable logging
//
// After Finish, every batch shipped through QueryEngine.Ship — the
// engine's only write path — is durable before it is acknowledged.

const (
	walFileName        = "wal.log"
	checkpointFileName = "checkpoint.db"
)

// DurabilityOptions configures a node's persistence.
type DurabilityOptions struct {
	// Sync is the WAL fsync policy: store.SyncAlways (default) fsyncs
	// every append before the commit acknowledges; store.SyncNever
	// leaves syncing to the OS and to explicit flush points (tests,
	// benchmarks isolating append cost).
	Sync store.SyncPolicy
	// WrapWAL, when set, wraps the log file before any append — the
	// chaos disk-fault hook (store/chaos.WrapDisk).
	WrapWAL func(store.WALFile) store.WALFile
}

// SyncPolicy re-exports the WAL fsync policy.
type SyncPolicy = store.SyncPolicy

// WAL fsync policies.
const (
	SyncAlways = store.SyncAlways
	SyncNever  = store.SyncNever
)

// RecoveryInfo reports what a boot's recovery did.
type RecoveryInfo struct {
	// ColdStart is true when the data directory held no prior state.
	ColdStart bool
	// Replay reports checkpoint restoration and WAL-tail replay.
	Replay store.ReplayStats
	// TailDamage is non-nil when the crash tore the log's tail; the
	// damaged suffix was cut at the last valid record.
	TailDamage *store.TailDamage
	// MemoEntries counts entailment verdicts imported from the
	// checkpoint; MemoDiscarded is true when the persisted memo could
	// not be decoded (version drift) and the boot fell back to a cold
	// solver cache — a performance regression, never a refusal to boot.
	MemoEntries   int
	MemoDiscarded bool
	// DerivationVerified is true when the checkpoint carried the derived
	// constraint set and the re-derived federation matched it.
	DerivationVerified bool
	// PlansWarmed / PlansSkipped report plan-shape re-planning.
	PlansWarmed  int
	PlansSkipped int
}

// Durability is one node's persistence handle. It is not safe for
// concurrent use with itself (Checkpoint serializes against the serving
// path internally, but callers must not race Checkpoint/Finish/Close
// with each other).
type Durability struct {
	dir      string
	wal      *store.WAL
	set      *store.DurableSet
	rec      *store.RecoveredState
	memo     *logic.Memo
	info     RecoveryInfo
	finished bool
}

// OpenDurability opens (creating if needed) a node's data directory,
// reads its checkpoint, and scans its WAL. A torn WAL tail is cut at
// the last valid record and reported in Info().TailDamage; a damaged
// checkpoint — checksummed and atomically replaced, so damage means
// storage corruption, not a crash — is a hard error.
func OpenDurability(dir string, opts DurabilityOptions) (*Durability, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durability: %w", err)
	}
	ckpt, err := store.ReadCheckpoint(filepath.Join(dir, checkpointFileName))
	if err != nil && !errors.Is(err, store.ErrNoCheckpoint) {
		return nil, fmt.Errorf("durability: %w", err)
	}
	wal, recs, err := store.OpenWAL(filepath.Join(dir, walFileName), store.WALOptions{
		Sync:     opts.Sync,
		WrapFile: opts.WrapWAL,
	})
	if err != nil {
		return nil, fmt.Errorf("durability: %w", err)
	}
	rec := store.BuildRecovery(ckpt, recs, wal.Damage())
	d := &Durability{
		dir:  dir,
		wal:  wal,
		set:  store.NewDurableSet(wal),
		rec:  rec,
		memo: logic.NewMemo(),
	}
	d.info.ColdStart = !rec.HasState()
	d.info.TailDamage = rec.Damage
	if sec, ok := rec.Derived("memo"); ok {
		n, ierr := d.memo.Import(sec)
		if ierr != nil {
			d.memo = logic.NewMemo()
			d.info.MemoDiscarded = true
		} else {
			d.info.MemoEntries = n
		}
	}
	return d, nil
}

// Memo returns the recovered entailment memo (empty on a cold start).
// Pass it as PipelineOptions.Memo so the boot's derivations answer
// their solver queries from the pre-crash cache.
func (d *Durability) Memo() *logic.Memo { return d.memo }

// HasState reports whether the directory held anything to recover.
func (d *Durability) HasState() bool { return d.rec.HasState() }

// Info reports what recovery did so far (final after Finish).
func (d *Durability) Info() RecoveryInfo { return d.info }

// WAL returns the node's log (tests and the serving layer's health
// endpoint inspect seal state and damage through it).
func (d *Durability) WAL() *store.WAL { return d.wal }

// RestoreStores replays `checkpoint + WAL tail` into the member
// stores, which must be built (and, for members that predate the first
// checkpoint, seeded) exactly as the original boot built them. Safe on
// a cold start (no-op). Call before attaching the stores to a
// federation: replay bypasses constraint re-checking — everything in
// the log was validated before it was recorded — and the pipeline must
// integrate the recovered extents.
func (d *Durability) RestoreStores(stores ...*Store) error {
	m := make(map[string]*store.Store, len(stores))
	for _, s := range stores {
		m[s.Name()] = s
	}
	stats, err := d.rec.Replay(m)
	d.info.Replay = stats
	if err != nil {
		return fmt.Errorf("durability: %w", err)
	}
	return nil
}

// Finish completes a boot: verifies the re-derived constraint set
// against the checkpoint's (a mismatch means the code or specs changed
// under the data directory — surfaced, not served), re-plans the
// persisted plan shapes so the first client query is already a
// plan-cache hit, interposes WAL logging on every member backend in the
// federation's registry, binds the routing-level intent/resolve
// logging, and writes a fresh checkpoint so the replayed tail is folded
// in and a crash during the NEXT epoch replays only its own writes.
func (d *Durability) Finish(ctx context.Context, f *Federation) (RecoveryInfo, error) {
	if d.finished {
		return d.info, fmt.Errorf("durability: Finish called twice")
	}
	f.mu.Lock()
	engine := f.engine
	names := make([]string, 0, len(f.members))
	for _, m := range f.members {
		names = append(names, m.Name)
	}
	var state *core.FedState = f.state
	f.mu.Unlock()
	if engine == nil || state == nil {
		return d.info, fmt.Errorf("durability: federation is not integrated (fewer than two members)")
	}

	if sec, ok := d.rec.Derived("derivation"); ok {
		if err := core.VerifyDerivation(state.Res.Derivation, sec); err != nil {
			return d.info, fmt.Errorf("durability: %w", err)
		}
		d.info.DerivationVerified = true
	}
	if sec, ok := d.rec.Derived("plans"); ok {
		warmed, skipped, err := engine.WarmPlans(ctx, sec)
		if err != nil {
			return d.info, fmt.Errorf("durability: %w", err)
		}
		d.info.PlansWarmed, d.info.PlansSkipped = warmed, skipped
	}

	for _, name := range names {
		b, ok := f.stores.Get(name)
		if !ok {
			return d.info, fmt.Errorf("durability: member %s missing from registry", name)
		}
		if err := f.stores.Swap(name, d.set.Wrap(b)); err != nil {
			return d.info, fmt.Errorf("durability: %w", err)
		}
	}
	engine.SetDurability(d.set)
	d.finished = true

	if err := d.Checkpoint(f); err != nil {
		return d.info, err
	}
	return d.info, nil
}

// Checkpoint writes an atomic snapshot of the node — member extents,
// entailment memo, derived constraint set, plan shapes — and drops the
// WAL prefix it makes redundant. The capture runs under the engine's
// read lock, which excludes Ship commits, so the extents and the log
// cut are one consistent state: it encodes the member stores in place,
// straight into the checkpoint's temporary file. The fsync and the
// rename happen after the lock is released.
func (d *Durability) Checkpoint(f *Federation) error {
	f.mu.Lock()
	engine := f.engine
	members := append([]*FederationMember{}, f.members...)
	state := f.state
	memo := f.memo
	f.mu.Unlock()
	if engine == nil || state == nil {
		return fmt.Errorf("durability: checkpoint: federation is not integrated")
	}

	cw, err := store.CreateCheckpoint(filepath.Join(d.dir, checkpointFileName))
	if err != nil {
		return fmt.Errorf("durability: %w", err)
	}
	stores := make([]*store.Store, len(members))
	for i, m := range members {
		stores[i] = m.Store
	}
	var lsn uint64
	var capErr error
	engine.ReadLocked(func() {
		lsn = d.wal.LastLSN()
		derived := make(map[string][]byte, 3)
		sections := []struct {
			name   string
			export func() ([]byte, error)
		}{
			{"memo", memo.Export},
			{"derivation", func() ([]byte, error) { return core.ExportDerivation(state.Res.Derivation) }},
			{"plans", engine.ExportPlans},
		}
		for _, s := range sections {
			b, err := s.export()
			if err != nil {
				capErr = fmt.Errorf("durability: checkpoint %s: %w", s.name, err)
				return
			}
			derived[s.name] = b
		}
		capErr = cw.Capture(lsn, stores, derived)
	})
	if capErr != nil {
		cw.Abort()
		return capErr
	}
	if err := cw.Commit(); err != nil {
		return fmt.Errorf("durability: %w", err)
	}
	if err := d.wal.TruncateThrough(lsn); err != nil {
		return fmt.Errorf("durability: %w", err)
	}
	return nil
}

// Close flushes and closes the log. It does NOT checkpoint; a graceful
// drain calls Checkpoint first (see Shutdown) so a clean shutdown
// restarts with zero replay, while a plain Close preserves the
// checkpoint + tail for the next boot to replay.
func (d *Durability) Close() error {
	return d.wal.Close()
}

// Shutdown is the graceful-drain exit: flush the log, write a final
// checkpoint (folding every acknowledged write, so the next boot
// replays nothing), and close. With a sealed or damaged log the
// checkpoint is skipped — the on-disk `checkpoint + tail` is the
// durable truth and the next boot replays it.
func (d *Durability) Shutdown(f *Federation) error {
	var firstErr error
	if err := d.wal.Sync(); err != nil {
		firstErr = err
	}
	if firstErr == nil && f != nil {
		if err := d.Checkpoint(f); err != nil {
			firstErr = err
		}
	}
	if err := d.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

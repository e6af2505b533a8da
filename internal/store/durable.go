package store

import (
	"encoding/binary"

	"interopdb/internal/object"
)

// Durable is the Backend wrapper that gives a member store a
// write-ahead log (the same Registry.Swap interposition point the
// chaos wrapper uses). Every transaction that commits through it is
// appended to the shared WAL — and fsynced, under SyncAlways — before
// Commit returns, so by the time the shipping layer acknowledges a
// batch, every member-local change is durable.
//
// Ordering: the inner commit runs FIRST, then the WAL append. A
// deferred-validation commit is also the validation — logging before
// it would record batches the member's manager then rejects. The
// window this opens (inner commit applied, WAL append failed) is
// handled by sealing: the append failure seals the log, Commit returns
// an ErrUnavailable-matching error, the caller never sees an ack, and
// the node must restart — recovery rebuilds exactly the durable
// prefix, which matches exactly the acknowledged batches.

// DurableSet owns the WAL shared by all members of one federation
// node and stamps records with the member names. It also carries the
// routed-shipping intent/resolve records the view layer writes around
// cross-member commit phases.
type DurableSet struct {
	wal *WAL
}

// NewDurableSet wraps a WAL for a federation's member set.
func NewDurableSet(wal *WAL) *DurableSet { return &DurableSet{wal: wal} }

// WAL returns the underlying log.
func (d *DurableSet) WAL() *WAL { return d.wal }

// Wrap interposes durability on a member backend.
func (d *DurableSet) Wrap(b Backend) Backend { return &Durable{inner: b, set: d} }

// AppendIntent logs a routed batch's per-member effects before the
// first member commit and returns the record's LSN, which becomes the
// batch's durable identity (commit records reference it).
func (d *DurableSet) AppendIntent(members []string, effects map[string][]WALOp) (uint64, error) {
	body, err := EncodeIntentRecord(IntentRecord{Members: members, Effects: effects})
	if err != nil {
		return 0, err
	}
	return d.wal.Append(WALIntent, body)
}

// AppendResolve logs a batch's terminal outcome. Failures are returned
// but are safe to ignore: an unresolved intent is re-settled by
// recovery from the member commit records, idempotently.
func (d *DurableSet) AppendResolve(batch uint64, outcome string) error {
	_, err := d.wal.Append(WALResolve, EncodeResolveRecord(ResolveRecord{Batch: batch, Outcome: outcome}))
	return err
}

// BatchTagger is implemented by durable transactions: the routed
// shipping path tags each member transaction with its batch's intent
// LSN so the commit records correlate.
type BatchTagger interface {
	TagBatch(lsn uint64)
}

// AppliedLogger is implemented by durable transactions. When the fault
// machinery resolves an ambiguous commit as applied (the member's
// effects landed before the failure was reported), the change is in
// the member but not yet in the log — LogApplied writes the commit
// record the ordinary Commit path would have written.
type AppliedLogger interface {
	LogApplied() error
}

// Durable wraps one member backend. Reads delegate; Begin returns a
// logging transaction.
type Durable struct {
	inner Backend
	set   *DurableSet
}

// Unwrap returns the wrapped backend (symmetry with the chaos wrapper;
// tests use it to reach the concrete store).
func (d *Durable) Unwrap() Backend { return d.inner }

// Name implements Backend.
func (d *Durable) Name() string { return d.inner.Name() }

// Count implements Backend.
func (d *Durable) Count() int { return d.inner.Count() }

// Get implements Backend.
func (d *Durable) Get(oid object.OID) (*Obj, bool) { return d.inner.Get(oid) }

// Extent implements Backend.
func (d *Durable) Extent(class string) []*Obj { return d.inner.Extent(class) }

// Ping implements Backend. A sealed log makes the member unavailable
// for writes — reporting it here lets the breaker quarantine the
// member instead of failing every batch at commit time.
func (d *Durable) Ping() error {
	if err := d.set.wal.Sealed(); err != nil {
		return err
	}
	return d.inner.Ping()
}

// Begin implements Backend.
func (d *Durable) Begin() Txn {
	return &durableTxn{d: d, inner: d.inner.Begin()}
}

// durableTxn stages through the inner transaction while recording the
// forward ops (with prior values captured from committed state, for
// verification and inversion) to log at commit. Each op is encoded as
// it is staged, so the record holds the values as they were handed in,
// and Commit only prepends the record header.
type durableTxn struct {
	d     *Durable
	inner Txn
	ops   []byte // encoded ops, appendWALOp form
	batch uint64
	done  bool
}

// record appends one staged op to the pending commit record.
func (t *durableTxn) record(op WALOp) { t.ops = appendWALOp(t.ops, op) }

// commitBody builds the commit record body for the staged ops.
func (t *durableTxn) commitBody() []byte {
	name := t.d.inner.Name()
	body := make([]byte, 0, len(name)+2*binary.MaxVarintLen64+len(t.ops))
	return append(appendCommitHeader(body, name, t.batch), t.ops...)
}

// TagBatch implements BatchTagger.
func (t *durableTxn) TagBatch(lsn uint64) { t.batch = lsn }

// Insert implements Txn.
func (t *durableTxn) Insert(class string, attrs map[string]object.Value) (object.OID, error) {
	oid, err := t.inner.Insert(class, attrs)
	if err != nil {
		return 0, err
	}
	t.record(WALOp{Kind: OpInsert, Class: class, OID: uint64(oid), Attrs: attrs})
	return oid, nil
}

// InsertAt implements Txn.
func (t *durableTxn) InsertAt(oid object.OID, class string, attrs map[string]object.Value) error {
	if err := t.inner.InsertAt(oid, class, attrs); err != nil {
		return err
	}
	t.record(WALOp{Kind: OpInsert, Class: class, OID: uint64(oid), Attrs: attrs})
	return nil
}

// Update implements Txn. Prior values come from committed state (the
// same capture the shipping layer's effect recorder performs).
func (t *durableTxn) Update(oid object.OID, attrs map[string]object.Value) error {
	var prev map[string]object.Value
	if o, ok := t.d.inner.Get(oid); ok {
		prev = make(map[string]object.Value, len(attrs))
		for k := range attrs {
			if v, had := o.Get(k); had {
				prev[k] = v
			}
		}
	}
	if err := t.inner.Update(oid, attrs); err != nil {
		return err
	}
	t.record(WALOp{Kind: OpUpdate, OID: uint64(oid), Attrs: attrs, Prev: prev})
	return nil
}

// Delete implements Txn.
func (t *durableTxn) Delete(oid object.OID) error {
	var prev map[string]object.Value
	var class string
	if o, ok := t.d.inner.Get(oid); ok {
		prev = o.Attrs()
		class = o.Class()
	}
	if err := t.inner.Delete(oid); err != nil {
		return err
	}
	t.record(WALOp{Kind: OpDelete, Class: class, OID: uint64(oid), Prev: prev})
	return nil
}

// Commit implements Txn: inner commit (validation + application),
// then the durable log append. A WAL failure after a successful inner
// commit returns ErrWALSealed — transient to the caller's fault
// machinery, terminal for this process's ability to acknowledge
// writes.
func (t *durableTxn) Commit() error {
	if t.done {
		// Replaying Commit on a finished transaction must stay
		// delegate-shaped: the inner transaction answers (typically
		// "already committed"), and no duplicate record is logged.
		return t.inner.Commit()
	}
	if err := t.inner.Commit(); err != nil {
		return err
	}
	if len(t.ops) == 0 {
		t.done = true
		return nil
	}
	body := t.commitBody()
	// done flips only once the record is durably appended: a failure
	// here leaves it false, so the fault machinery's LogApplied knows
	// the member's applied change still has no record and cannot let
	// the batch be acknowledged (it will re-attempt the append and
	// surface the sealed log).
	if _, err := t.d.set.wal.Append(WALCommit, body); err != nil {
		return err
	}
	t.done = true
	return nil
}

// LogApplied implements AppliedLogger: force the commit record for a
// transaction whose inner commit applied but reported a failure.
func (t *durableTxn) LogApplied() error {
	if t.done {
		return nil
	}
	t.done = true
	if len(t.ops) == 0 {
		return nil
	}
	_, err := t.d.set.wal.Append(WALCommit, t.commitBody())
	return err
}

// Rollback implements Txn.
func (t *durableTxn) Rollback() {
	t.ops = nil
	t.inner.Rollback()
}

// Compile-time checks.
var (
	_ Backend       = (*Durable)(nil)
	_ Txn           = (*durableTxn)(nil)
	_ BatchTagger   = (*durableTxn)(nil)
	_ AppliedLogger = (*durableTxn)(nil)
)

package view

import (
	"fmt"

	"interopdb/internal/store"
)

// Durability hooks for the routed shipping path (DESIGN.md §13). With a
// DurableSet bound, every routed batch writes an intent record (the
// per-member forward effects, prior values included) before its first
// member commit, each member transaction's commit record carries the
// intent's LSN, and the batch's terminal outcome is logged as a resolve
// record. Recovery (store/recover.go) replays commits and settles
// interrupted batches from exactly these records.

// SetDurability binds (or, with nil, unbinds) the node's write-ahead
// log set. The same DurableSet must be the one whose Wrap interposed on
// the member backends — the engine only writes the routing-level
// records; member commit records come from the wrapped backends.
func (e *Engine) SetDurability(d *store.DurableSet) {
	e.durability.Store(d)
}

// Durability returns the bound DurableSet, nil when durability is off.
func (e *Engine) Durability() *store.DurableSet {
	return e.durability.Load()
}

// effectsToWALOps converts one member's recorded effects to WAL ops.
func effectsToWALOps(effs []memberEffect) ([]store.WALOp, error) {
	ops := make([]store.WALOp, 0, len(effs))
	for _, ef := range effs {
		var kind store.OpKind
		switch ef.Kind {
		case MutInsert:
			kind = store.OpInsert
		case MutUpdate:
			kind = store.OpUpdate
		case MutDelete:
			kind = store.OpDelete
		default:
			return nil, fmt.Errorf("wal: unknown effect kind %d", int(ef.Kind))
		}
		ops = append(ops, store.WALOp{Kind: kind, Class: ef.Class, OID: uint64(ef.OID), Attrs: ef.Attrs, Prev: ef.Prev})
	}
	return ops, nil
}

// logIntent writes a routed batch's intent record and tags every member
// transaction with the record's LSN. Called between journal.begin and
// the first member commit; a failure here (typically a sealed WAL)
// means the batch cannot be made durable and must abort before any
// member commits.
func (e *Engine) logIntent(ent *journalEntry, order []string, txs map[string]store.Txn, effects map[string][]memberEffect) error {
	ds := e.durability.Load()
	if ds == nil {
		return nil
	}
	walEffs := make(map[string][]store.WALOp, len(effects))
	for m, effs := range effects {
		ops, err := effectsToWALOps(effs)
		if err != nil {
			return fmt.Errorf("durability: record intent: %w", err)
		}
		walEffs[m] = ops
	}
	lsn, err := ds.AppendIntent(order, walEffs)
	if err != nil {
		return fmt.Errorf("durability: append intent: %w", err)
	}
	ent.Wal = lsn
	for _, m := range order {
		if bt, ok := txs[m].(store.BatchTagger); ok {
			bt.TagBatch(lsn)
		}
	}
	return nil
}

// logResolve writes a batch's terminal outcome. Best-effort by design:
// an unresolved intent is settled idempotently by recovery from the
// member commit records, so a failed append here (sealed log during
// shutdown-by-fault) loses nothing.
func (e *Engine) logResolve(ent *journalEntry, outcome string) {
	if ent.Wal == 0 {
		return
	}
	if ds := e.durability.Load(); ds != nil {
		_ = ds.AppendResolve(ent.Wal, outcome)
	}
}

// logApplied forces the WAL commit record for a transaction the fault
// machinery just resolved as applied (fail-after-commit): the member
// holds the change, so the log must too — otherwise recovery would
// replay a prefix missing an acknowledged commit. A failure is returned
// as the commit outcome: without the record the commit cannot be
// acknowledged durable.
func logApplied(txn store.Txn) error {
	if al, ok := txn.(store.AppliedLogger); ok {
		return al.LogApplied()
	}
	return nil
}

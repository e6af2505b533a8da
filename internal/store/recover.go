package store

import (
	"fmt"

	"interopdb/internal/object"
)

// Recovery (DESIGN.md §13): rebuild member-store state from
// `checkpoint + WAL tail`. The functions here are pure with respect to
// the log — recovery never writes to the WAL, so a crash *during*
// recovery changes nothing and the next attempt replays the same
// inputs to the same result. Durability of the recovery itself comes
// from the fresh checkpoint the orchestrating layer writes once the
// federation is rebuilt.

// RecoveredState is the parsed persistent state of a node: the last
// checkpoint (nil on first boot), the WAL tail past it, and the
// tail-damage report if the crash tore the log.
type RecoveredState struct {
	Checkpoint *Checkpoint
	// Records is the WAL tail: every surviving record with LSN beyond
	// the checkpoint, in log order.
	Records []WALRecord
	Damage  *TailDamage
	// LastLSN is the highest LSN seen anywhere (checkpoint or tail).
	LastLSN uint64
}

// BuildRecovery assembles a RecoveredState from a checkpoint (nil when
// none exists) and the records OpenWAL returned. Records the
// checkpoint already covers are dropped here, once, so Replay never
// sees them.
func BuildRecovery(ckpt *Checkpoint, recs []WALRecord, damage *TailDamage) *RecoveredState {
	rs := &RecoveredState{Checkpoint: ckpt, Damage: damage}
	var base uint64
	if ckpt != nil {
		base = ckpt.LSN
		rs.LastLSN = ckpt.LSN
	}
	for _, r := range recs {
		if r.LSN > rs.LastLSN {
			rs.LastLSN = r.LSN
		}
		if r.LSN <= base {
			continue
		}
		rs.Records = append(rs.Records, r)
	}
	return rs
}

// HasState reports whether there is anything to recover.
func (rs *RecoveredState) HasState() bool {
	return rs.Checkpoint != nil || len(rs.Records) > 0
}

// Derived returns a derived-artifact section from the checkpoint
// ("derivation", "memo", "plans"), or false.
func (rs *RecoveredState) Derived(section string) ([]byte, bool) {
	if rs.Checkpoint == nil {
		return nil, false
	}
	b, ok := rs.Checkpoint.Derived[section]
	return b, ok
}

// ReplayStats reports what Replay did.
type ReplayStats struct {
	// RestoredMembers / RestoredObjects count checkpoint restoration.
	RestoredMembers int
	RestoredObjects int
	// ReplayedCommits counts WAL commit records applied.
	ReplayedCommits int
	// SkippedRecords counts records dropped by the idempotency guard
	// (non-increasing LSN — e.g. a tail replayed twice).
	SkippedRecords int
	// CompletedIntents counts unresolved routed batches finished by
	// applying their recorded effects to the members that missed them;
	// AbortedIntents counts unresolved batches with no committed member
	// (recognised as clean aborts and dropped).
	CompletedIntents int
	AbortedIntents   int
	// CompensatedIntents counts batches resolved "compensated" whose
	// undo the crash interrupted, finished here via inverse effects.
	CompensatedIntents int
	// UnresolvedOps counts effect applications (forward or inverse)
	// performed to settle intents.
	UnresolvedOps int
}

// Replay rebuilds the member stores: checkpoint restore, then WAL tail
// in LSN order, then completion of unresolved cross-member intents.
// The stores map must name every member the log mentions, each built
// (and, on first boot, seeded) exactly as the original boot built it.
// Replay applies committed state without re-running constraint checks:
// everything in the log was validated by the member's manager before
// it was recorded.
func (rs *RecoveredState) Replay(stores map[string]*Store) (ReplayStats, error) {
	var stats ReplayStats
	if rs.Checkpoint != nil {
		for _, mc := range rs.Checkpoint.Members {
			s, ok := stores[mc.Name]
			if !ok {
				return stats, fmt.Errorf("recover: checkpoint names member %s but no store was provided", mc.Name)
			}
			if err := mc.RestoreInto(s); err != nil {
				return stats, fmt.Errorf("recover: %w", err)
			}
			stats.RestoredMembers++
			stats.RestoredObjects += s.Count()
		}
	}

	// The WAL tail. Commits apply in log order; intents and resolves
	// are collected to settle cross-member atomicity afterwards.
	type intentState struct {
		lsn       uint64
		rec       IntentRecord
		outcome   string // "" while unresolved
		committed map[string]bool
	}
	var intents []*intentState
	byLSN := map[uint64]*intentState{}
	var lastLSN uint64
	if rs.Checkpoint != nil {
		lastLSN = rs.Checkpoint.LSN
	}
	for _, r := range rs.Records {
		if r.LSN <= lastLSN {
			stats.SkippedRecords++
			continue
		}
		lastLSN = r.LSN
		switch r.Kind {
		case WALCommit:
			cr, err := DecodeCommitRecord(r.Body)
			if err != nil {
				return stats, fmt.Errorf("recover: LSN %d: %w", r.LSN, err)
			}
			s, ok := stores[cr.Member]
			if !ok {
				return stats, fmt.Errorf("recover: LSN %d commits to unknown member %s", r.LSN, cr.Member)
			}
			if err := applyWALOps(s, cr.Ops); err != nil {
				return stats, fmt.Errorf("recover: LSN %d on %s: %w", r.LSN, cr.Member, err)
			}
			stats.ReplayedCommits++
			if cr.Batch != 0 {
				if st, ok := byLSN[cr.Batch]; ok {
					st.committed[cr.Member] = true
				}
			}
		case WALIntent:
			ir, err := DecodeIntentRecord(r.Body)
			if err != nil {
				return stats, fmt.Errorf("recover: LSN %d: %w", r.LSN, err)
			}
			st := &intentState{lsn: r.LSN, rec: ir, committed: map[string]bool{}}
			intents = append(intents, st)
			byLSN[r.LSN] = st
		case WALResolve:
			rr, err := DecodeResolveRecord(r.Body)
			if err != nil {
				return stats, fmt.Errorf("recover: LSN %d: %w", r.LSN, err)
			}
			if st, ok := byLSN[rr.Batch]; ok {
				st.outcome = rr.Outcome
			}
		default:
			return stats, fmt.Errorf("recover: LSN %d: unknown record kind %d", r.LSN, r.Kind)
		}
	}

	// Unresolved intents: the crash caught a routed batch between its
	// intent record and its terminal outcome. Per-member commit records
	// tell us how far it got. Nothing committed → the batch was never
	// acknowledged and aborts cleanly. A committed prefix → the batch
	// was partially durable; complete it, because the committed members'
	// state is already visible and completion (unlike compensation)
	// needs no cooperation from state the crash destroyed.
	for _, st := range intents {
		if st.outcome == ResolveCompensated {
			// The batch's fate was sealed as "undo the committed prefix"
			// before the compensating transactions ran; any member whose
			// forward effects are still present missed its undo. The
			// intent's Prev values carry everything the inverse needs.
			undone := false
			for _, m := range st.rec.Members {
				ops := st.rec.Effects[m]
				s, ok := stores[m]
				if !ok {
					return stats, fmt.Errorf("recover: intent LSN %d names unknown member %s", st.lsn, m)
				}
				if !walOpsApplied(s, ops) {
					continue
				}
				inv := inverseWALOps(ops)
				if err := applyWALOps(s, inv); err != nil {
					return stats, fmt.Errorf("recover: compensating intent LSN %d on %s: %w", st.lsn, m, err)
				}
				stats.UnresolvedOps += len(inv)
				undone = true
			}
			if undone {
				stats.CompensatedIntents++
			}
			continue
		}
		if st.outcome != "" {
			continue
		}
		anyCommitted := false
		for _, m := range st.rec.Members {
			if st.committed[m] {
				anyCommitted = true
				break
			}
		}
		if !anyCommitted {
			stats.AbortedIntents++
			continue
		}
		for _, m := range st.rec.Members {
			if st.committed[m] {
				continue
			}
			ops := st.rec.Effects[m]
			s, ok := stores[m]
			if !ok {
				return stats, fmt.Errorf("recover: intent LSN %d names unknown member %s", st.lsn, m)
			}
			if walOpsApplied(s, ops) {
				continue
			}
			if err := applyWALOps(s, ops); err != nil {
				return stats, fmt.Errorf("recover: completing intent LSN %d on %s: %w", st.lsn, m, err)
			}
			stats.UnresolvedOps += len(ops)
		}
		stats.CompletedIntents++
	}
	return stats, nil
}

// applyWALOps applies forward ops to a store with constraint
// enforcement off (the log records already-validated state).
func applyWALOps(s *Store, ops []WALOp) error {
	enforce := s.Enforce
	s.Enforce = false
	defer func() { s.Enforce = enforce }()
	for i, op := range ops {
		attrs := op.Attrs
		oid := object.OID(op.OID)
		switch op.Kind {
		case OpInsert:
			if err := s.validateAttrs(op.Class, attrs); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
			if err := s.insertReserved(oid, op.Class, attrs); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
			if oid >= s.nextOID {
				s.nextOID = oid + 1
			}
		case OpUpdate:
			if err := s.Update(oid, attrs); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		case OpDelete:
			if err := s.Delete(oid); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		default:
			return fmt.Errorf("op %d: unknown kind %d", i, int(op.Kind))
		}
	}
	return nil
}

// inverseWALOps builds the undo script for a member's forward ops: the
// inverses in reverse order (the same construction as the shipping
// layer's inverseEffects). An update whose prior values were never
// declared has nothing to restore and is skipped.
func inverseWALOps(ops []WALOp) []WALOp {
	out := make([]WALOp, 0, len(ops))
	for i := len(ops) - 1; i >= 0; i-- {
		op := ops[i]
		switch op.Kind {
		case OpInsert:
			out = append(out, WALOp{Kind: OpDelete, Class: op.Class, OID: op.OID, Prev: op.Attrs})
		case OpUpdate:
			if len(op.Prev) > 0 {
				out = append(out, WALOp{Kind: OpUpdate, OID: op.OID, Attrs: op.Prev, Prev: op.Attrs})
			}
		case OpDelete:
			out = append(out, WALOp{Kind: OpInsert, Class: op.Class, OID: op.OID, Attrs: op.Prev})
		}
	}
	return out
}

// walOpsApplied mirrors the shipping layer's effect-verification
// oracle: member commits are atomic, so the recorded effects are either
// all present or all absent. An empty list proves nothing and reports
// false.
func walOpsApplied(s *Store, ops []WALOp) bool {
	if len(ops) == 0 {
		return false
	}
	for _, op := range ops {
		oid := object.OID(op.OID)
		switch op.Kind {
		case OpInsert:
			if _, ok := s.Get(oid); !ok {
				return false
			}
		case OpUpdate:
			o, ok := s.Get(oid)
			if !ok {
				return false
			}
			for k, v := range op.Attrs {
				got, ok := o.Get(k)
				if !ok || !got.Equal(v) {
					return false
				}
			}
		case OpDelete:
			if _, ok := s.Get(oid); ok {
				return false
			}
		}
	}
	return true
}

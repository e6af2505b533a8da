package view

import (
	"context"
	"fmt"

	"interopdb/internal/object"
	"interopdb/internal/store"
)

// Routed shipping: in an N-member federation a batch's operations land
// in different component databases — an insert goes to its global
// class's origin member, an update to every member holding a
// constituent of the target, a delete to all of them. Ship resolves each
// operation's member backends through the federation's store.Registry
// and stages ONE deferred-validation transaction per member, so each
// local manager validates its final state once while the caller stays
// member-agnostic.

// BindStores binds the federation's member-store registry to the
// engine, enabling Ship. The federation that owns the engine calls it at
// construction and after every membership change; passing nil unbinds.
func (e *Engine) BindStores(reg *store.Registry) {
	e.stores.Store(reg)
}

// Ship is the engine's one shipping entrypoint: it routes a validated
// mixed insert/update/delete batch across the member backends bound with
// BindStores — every operation goes to the member database(s) that own
// it, one deferred-validation transaction per member. A singleton
// mutation is a one-element batch. Mutation attributes are in the
// conformed (global) domain, the domain Validate evaluates; PropEq value
// conversion to a member's native domain is not applied. Transactions commit in
// first-use order (deterministic); because autonomous databases cannot
// commit atomically across members, the commit phase is fault-tolerant
// end to end:
//
//   - A member quarantined by its circuit breaker — or one with batches
//     still pending in the commit journal — fast-fails the whole batch
//     with ErrMemberUnavailable BEFORE any member commits, so no partial
//     commit is possible.
//   - Transient commit failures (store.ErrUnavailable) are retried with
//     capped exponential backoff under a per-member time budget
//     (Engine.Retry); a commit whose effects landed before the failure
//     was reported (fail-after-commit) is recognised by effect
//     verification and counted as committed.
//   - A member that stays down AFTER peers committed strands the batch:
//     the journal entry recorded before the first commit stays pending
//     and the caller gets a *PartialCommitError naming the committed
//     members and the journal position — Engine.Reconcile finishes the
//     batch when the member heals. If nothing committed yet, the clean
//     abort is reported as *MemberUnavailableError instead (retryable).
//   - A member whose local manager REJECTS the batch after peers
//     committed triggers inline compensation: the committed prefix is
//     undone via inverse effects and the original rejection is returned
//     with the federation restored; only if compensation itself stalls
//     does the caller see a *PartialCommitError.
//
// With durability on, the intent and its resolution go to the WAL
// before the batch is acknowledged (durable.go). On full success the
// batch is applied to the integrated view in order and ONE snapshot is
// published, so concurrent readers observe the whole batch or none of
// it.
//
// The context is checked between staged operations and once more before
// the first member commit: cancellation there rolls every member
// transaction back and leaves the view untouched. Once the first member
// has committed, the remaining commits and the view application run to
// completion regardless of cancellation — aborting midway would strand
// committed subtransactions outside the view.
func (e *Engine) Ship(ctx context.Context, ops []Mutation) error {
	reg := e.stores.Load()
	if reg == nil {
		return fmt.Errorf("no store registry bound to the engine (BindStores was never called)")
	}
	e.mu.Lock()
	defer e.ensurePublished()
	defer e.mu.Unlock()

	txs := map[string]store.Txn{}
	backends := map[string]store.Backend{}
	effects := map[string][]memberEffect{}
	var order []string
	txFor := func(member string) (store.Txn, error) {
		if tx, ok := txs[member]; ok {
			return tx, nil
		}
		st, ok := reg.Get(member)
		if !ok {
			return nil, fmt.Errorf("no store registered for member %s", member)
		}
		// Quarantine gate: refuse the batch while the member's breaker
		// is open or earlier batches await it in the journal — before
		// any peer commits, so the refusal is cleanly retryable.
		if pending := e.journal.pendingFor(member); pending > 0 {
			e.faults.quarantineRejects.Add(1)
			return nil, &MemberUnavailableError{
				Member:     member,
				RetryAfter: e.health.retryHint(member),
				Err:        fmt.Errorf("%d batch(es) pending reconciliation", pending),
			}
		}
		if ok, retryAfter := e.health.allow(member); !ok {
			e.faults.quarantineRejects.Add(1)
			return nil, &MemberUnavailableError{Member: member, RetryAfter: retryAfter, Err: store.ErrUnavailable}
		}
		tx := st.Begin()
		txs[member] = tx
		backends[member] = st
		order = append(order, member)
		return tx, nil
	}
	abort := func(err error) error {
		for _, n := range order {
			txs[n].Rollback()
		}
		return err
	}

	applies := make([]shippedOp, 0, len(ops))
	for i, op := range ops {
		if err := ctx.Err(); err != nil {
			return abort(err)
		}
		switch op.Kind {
		case MutInsert:
			org, ok := e.res.View.Origin[op.Class]
			if !ok {
				return abort(fmt.Errorf("op %d: no origin class for global class %s: %w", i, op.Class, ErrUnknownClass))
			}
			member := e.res.Conformed.MemberName(org.Side)
			tx, err := txFor(member)
			if err != nil {
				return abort(fmt.Errorf("op %d: %w", i, err))
			}
			oid, err := tx.Insert(org.Class, op.Attrs)
			if err != nil {
				return abort(fmt.Errorf("op %d: %w", i, err))
			}
			effects[member] = append(effects[member], memberEffect{
				Kind: MutInsert, Class: org.Class, OID: oid, Attrs: copyAttrs(op.Attrs),
			})
			applies = append(applies, shippedOp{op: op, oid: oid, db: member})
		case MutUpdate:
			g, err := e.lockedTarget(op.Class, op.ID)
			if err != nil {
				return abort(fmt.Errorf("op %d: %w", i, err))
			}
			staged := false
			for _, ms := range g.Parts {
				for _, m := range ms {
					if m.Virtual {
						continue
					}
					tx, err := txFor(m.Src.DB)
					if err != nil {
						return abort(fmt.Errorf("op %d: %w", i, err))
					}
					prev := prevAttrs(backends[m.Src.DB], m.Src.OID, op.Attrs)
					if err := tx.Update(m.Src.OID, op.Attrs); err != nil {
						return abort(fmt.Errorf("op %d: %w", i, err))
					}
					effects[m.Src.DB] = append(effects[m.Src.DB], memberEffect{
						Kind: MutUpdate, OID: m.Src.OID, Attrs: copyAttrs(op.Attrs), Prev: prev,
					})
					staged = true
				}
			}
			if !staged {
				return abort(fmt.Errorf("op %d: object g%d has no component constituents to update", i, op.ID))
			}
			applies = append(applies, shippedOp{op: op, g: g})
		case MutDelete:
			g, err := e.lockedTarget(op.Class, op.ID)
			if err != nil {
				return abort(fmt.Errorf("op %d: %w", i, err))
			}
			for _, ms := range g.Parts {
				for _, m := range ms {
					if m.Virtual {
						continue
					}
					tx, err := txFor(m.Src.DB)
					if err != nil {
						return abort(fmt.Errorf("op %d: %w", i, err))
					}
					var prev map[string]object.Value
					var class string
					if o, ok := backends[m.Src.DB].Get(m.Src.OID); ok {
						prev = o.Attrs()
						class = o.Class()
					}
					if err := tx.Delete(m.Src.OID); err != nil {
						return abort(fmt.Errorf("op %d: %w", i, err))
					}
					effects[m.Src.DB] = append(effects[m.Src.DB], memberEffect{
						Kind: MutDelete, Class: class, OID: m.Src.OID, Prev: prev,
					})
				}
			}
			applies = append(applies, shippedOp{op: op, g: g})
		default:
			return abort(fmt.Errorf("op %d: unknown mutation kind %d", i, int(op.Kind)))
		}
	}

	if err := ctx.Err(); err != nil {
		return abort(err)
	}

	// Intent is journaled before the first member commit: if the commit
	// phase strands, the entry holds everything Reconcile needs. With
	// durability on, the same intent also goes to the WAL so a crash
	// that destroys the in-memory journal can still settle the batch.
	ent := e.journal.begin(order, backends, txs, effects, applies)
	if err := e.logIntent(ent, order, txs, effects); err != nil {
		for _, m := range order {
			txs[m].Rollback()
		}
		e.journal.remove(ent)
		return err
	}

	var committed, pendingMembers []string
	for ci, member := range order {
		err := e.commitWithRetry(ctx, backends[member], txs[member], effects[member])
		if err == nil {
			e.journal.markCommitted(ent, member)
			e.health.success(member)
			committed = append(committed, member)
			continue
		}
		if !store.IsTransient(err) {
			// Permanent local rejection: the batch can never complete.
			for _, later := range order[ci+1:] {
				txs[later].Rollback()
			}
			if len(committed) == 0 {
				// Nothing committed anywhere — a plain rejection.
				e.logResolve(ent, store.ResolveAborted)
				e.journal.remove(ent)
				return fmt.Errorf("op batch rejected by %s: %w", member, err)
			}
			// Undo the committed prefix. If every compensation lands,
			// the federation is restored and the caller sees the
			// member's rejection, not a partial commit. The resolve
			// record goes to the WAL at the mode flip — BEFORE the
			// compensating commits — so a crash mid-undo recovers into
			// "finish the compensation", never "complete the batch the
			// member rejected".
			e.journal.setMode(ent, modeCompensate, member, err)
			e.logResolve(ent, store.ResolveCompensated)
			if e.compensateEntry(ctx, ent) {
				e.journal.remove(ent)
				e.faults.compensatedInline.Add(1)
				return fmt.Errorf("batch rejected by %s; %d committed member transaction(s) compensated, federation state restored: %w",
					member, len(committed), err)
			}
			e.faults.partialCommits.Add(1)
			return &PartialCommitError{
				Seq: ent.Seq, Committed: committed,
				Pending: e.journal.committedPendingCompensation(ent),
				Mode:    modeCompensate.String(), Err: err,
			}
		}
		// Transient outage: the member is down. Quarantine it.
		e.health.outage(member, err)
		e.faults.outages.Add(1)
		e.journal.setErr(ent, err)
		if len(committed) == 0 {
			// No peer has committed: abort cleanly, breaker open —
			// the batch is wholesale-retryable after the cool-down.
			for _, m := range order {
				txs[m].Rollback()
			}
			e.logResolve(ent, store.ResolveAborted)
			e.journal.remove(ent)
			return &MemberUnavailableError{Member: member, RetryAfter: e.health.retryHint(member), Err: err}
		}
		// Peers committed: keep committing the remaining healthy
		// members (shrinking the pending set) and strand only the
		// failed one(s) for Reconcile.
		pendingMembers = append(pendingMembers, member)
	}
	if len(pendingMembers) > 0 {
		e.faults.partialCommits.Add(1)
		return &PartialCommitError{
			Seq: ent.Seq, Committed: committed, Pending: pendingMembers,
			Mode: modeComplete.String(), Err: fmt.Errorf("%s", e.journal.lastErrOf(ent)),
		}
	}
	e.logResolve(ent, store.ResolveCommitted)
	e.journal.remove(ent)
	return e.applyShipped(applies)
}

// prevAttrs captures the member-local values an update is about to
// overwrite (only keys that currently exist — the compensation script
// restores values, it cannot un-declare attributes).
func prevAttrs(b store.Backend, oid object.OID, assigned map[string]object.Value) map[string]object.Value {
	o, ok := b.Get(oid)
	if !ok {
		return nil
	}
	prev := make(map[string]object.Value, len(assigned))
	for k := range assigned {
		if v, had := o.Get(k); had {
			prev[k] = v
		}
	}
	return prev
}

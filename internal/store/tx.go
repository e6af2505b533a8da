package store

import (
	"fmt"

	"interopdb/internal/object"
)

// Tx is a deferred-validation transaction: mutations are staged and the
// whole batch is constraint-checked atomically at Commit. This is the
// "local transaction manager" whose rejections the paper's global
// transaction validation wants to predict (§1).
type Tx struct {
	s    *Store
	done bool
	ops  []txOp
}

type txOpKind int

const (
	opInsert txOpKind = iota
	opUpdate
	opDelete
)

type txOp struct {
	kind  txOpKind
	class string
	oid   object.OID
	attrs map[string]object.Value
}

// Begin starts a transaction. The return type is the Txn interface (not
// *Tx) so *Store satisfies Backend; in-package callers needing the
// concrete type can assert.
func (s *Store) Begin() Txn { return &Tx{s: s} }

// Insert stages an insert and returns the OID the object will have if the
// transaction commits. The OID is reserved on the store at staging time
// (not predicted from the current counter), so it stays valid no matter
// what the store allocates between staging and commit: interleaved direct
// inserts, other transactions staging or committing, and any mix of
// deletes and inserts inside this batch. A reservation is never reused —
// a rolled-back or failed transaction leaves a hole in the OID sequence.
func (t *Tx) Insert(class string, attrs map[string]object.Value) (object.OID, error) {
	if t.done {
		return 0, fmt.Errorf("transaction already finished")
	}
	if err := t.s.validateAttrs(class, attrs); err != nil {
		return 0, err
	}
	cp := make(map[string]object.Value, len(attrs))
	for k, v := range attrs {
		cp[k] = v
	}
	oid := t.s.nextOID
	t.s.nextOID++
	t.ops = append(t.ops, txOp{kind: opInsert, class: class, oid: oid, attrs: cp})
	return oid, nil
}

// InsertAt stages an insert under a caller-supplied OID (see
// Txn.InsertAt): compensation re-creates deleted objects under their
// original identity. The allocation counter is bumped past the OID so
// later allocations cannot collide with it.
func (t *Tx) InsertAt(oid object.OID, class string, attrs map[string]object.Value) error {
	if t.done {
		return fmt.Errorf("transaction already finished")
	}
	if err := t.s.validateAttrs(class, attrs); err != nil {
		return err
	}
	if _, taken := t.s.objs[oid]; taken {
		return fmt.Errorf("store %s: OID %s already occupied", t.s.Name(), oid)
	}
	cp := make(map[string]object.Value, len(attrs))
	for k, v := range attrs {
		cp[k] = v
	}
	if oid >= t.s.nextOID {
		t.s.nextOID = oid + 1
	}
	t.ops = append(t.ops, txOp{kind: opInsert, class: class, oid: oid, attrs: cp})
	return nil
}

// Update stages a partial update.
func (t *Tx) Update(oid object.OID, attrs map[string]object.Value) error {
	if t.done {
		return fmt.Errorf("transaction already finished")
	}
	class, ok := t.classOf(oid)
	if !ok {
		return fmt.Errorf("store %s: no object %s", t.s.Name(), oid)
	}
	if err := t.s.validateAttrs(class, attrs); err != nil {
		return err
	}
	cp := make(map[string]object.Value, len(attrs))
	for k, v := range attrs {
		cp[k] = v
	}
	t.ops = append(t.ops, txOp{kind: opUpdate, class: class, oid: oid, attrs: cp})
	return nil
}

// Delete stages a deletion.
func (t *Tx) Delete(oid object.OID) error {
	if t.done {
		return fmt.Errorf("transaction already finished")
	}
	class, ok := t.classOf(oid)
	if !ok {
		return fmt.Errorf("store %s: no object %s", t.s.Name(), oid)
	}
	t.ops = append(t.ops, txOp{kind: opDelete, class: class, oid: oid})
	return nil
}

// classOf resolves the class of an object visible to the transaction
// (staged inserts included).
func (t *Tx) classOf(oid object.OID) (string, bool) {
	for i := len(t.ops) - 1; i >= 0; i-- {
		op := t.ops[i]
		if op.oid == oid {
			if op.kind == opDelete {
				return "", false
			}
			return op.class, true
		}
	}
	if o, ok := t.s.objs[oid]; ok {
		return o.class, true
	}
	return "", false
}

// Rollback discards the staged operations.
func (t *Tx) Rollback() {
	t.done = true
	t.ops = nil
}

// Commit applies the staged operations with constraint enforcement
// deferred to the end: the final state is validated in full and the store
// is restored untouched if any constraint fails.
func (t *Tx) Commit() error {
	if t.done {
		return fmt.Errorf("transaction already finished")
	}
	t.done = true
	s := t.s
	savedEnforce := s.Enforce
	s.Enforce = false

	type undo func()
	var undos []undo
	fail := func(err error) error {
		for i := len(undos) - 1; i >= 0; i-- {
			undos[i]()
		}
		s.Enforce = savedEnforce
		return err
	}

	for _, op := range t.ops {
		switch op.kind {
		case opInsert:
			oid := op.oid
			if err := s.insertReserved(oid, op.class, op.attrs); err != nil {
				return fail(err)
			}
			// The reservation is not released on undo: the OID stays
			// burned so no later allocation can collide with a reference
			// the caller may have kept.
			undos = append(undos, func() { s.removeObj(oid) })
		case opUpdate:
			o, ok := s.objs[op.oid]
			if !ok {
				return fail(fmt.Errorf("store %s: no object %s at commit", s.Name(), op.oid))
			}
			saved := make(map[string]object.Value)
			had := make(map[string]bool)
			for k := range op.attrs {
				saved[k], had[k] = o.attrs[k]
			}
			if err := s.Update(op.oid, op.attrs); err != nil {
				return fail(err)
			}
			undos = append(undos, func() {
				for k := range op.attrs {
					if had[k] {
						o.attrs[k] = saved[k]
					} else {
						delete(o.attrs, k)
					}
				}
			})
		case opDelete:
			o, ok := s.objs[op.oid]
			if !ok {
				return fail(fmt.Errorf("store %s: no object %s at commit", s.Name(), op.oid))
			}
			pos := s.removeObj(op.oid)
			undos = append(undos, func() { s.restoreObj(o, pos) })
		}
	}

	if vs := s.CheckAll(); len(vs) > 0 {
		return fail(&ViolationError{vs})
	}
	s.Enforce = savedEnforce
	return nil
}

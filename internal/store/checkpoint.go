package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"interopdb/internal/object"
)

// Checkpoints bound WAL replay: a checkpoint is a consistent snapshot
// of every member store's extent PLUS the federation's derived
// artifacts (serialized derivation, entailment memo, plan metadata —
// opaque sections filled by the layers that own those types), stamped
// with the WAL LSN it covers. Recovery restores the checkpoint and
// replays only the records after its LSN.
//
// File layout: [8B magic "IDBCKPT2"][body][4B CRC32C LE], the checksum
// covering magic and body. The magic's trailing digit is the format
// version; a file in another version is refused by name, never
// misread. The body uses the binary value codec of internal/object
// (str = uvarint-length-prefixed bytes):
//
//	[uvarint lsn][uvarint nmembers][member...][uvarint nsections][section...]
//	member:  [str name][uvarint next_oid][uvarint nclasses][class...]  classes ascending
//	class:   [str name][uvarint nobjects][object...]                   insertion order
//	object:  [uvarint oid][object.AppendAttrs]                         names ascending
//	section: [str name][uvarint len][bytes]                            names ascending
//
// The write streams the body from the live stores into a temporary
// file, then fsyncs it and renames it over the target, so a crash
// mid-checkpoint leaves the previous checkpoint intact; the rename is
// the commit point.

const (
	checkpointMagic = "IDBCKPT2"
	// checkpointFamily prefixes every checkpoint format's magic, so a
	// file of another version is named in the refusal.
	checkpointFamily  = "IDBCKPT"
	checkpointTrailer = 4
	// checkpointChunk is the encoder's write granularity: objects are
	// appended into one buffer of about this size, which is written out
	// whenever it fills.
	checkpointChunk = 64 << 10
)

// CheckpointObject is one stored object in a member snapshot.
type CheckpointObject struct {
	OID   uint64
	Attrs map[string]object.Value
}

// MarshalJSON renders the object as its OID and the binary encoding of
// its attributes, so json.Marshal of a snapshot (the recovery tests' and
// the benchmark's digest form) is deterministic and exact for every
// value kind.
func (o CheckpointObject) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		OID   uint64 `json:"oid"`
		Attrs []byte `json:"attrs"`
	}{o.OID, object.AppendAttrs(nil, o.Attrs)})
}

// ClassExtent is one class's direct instances, in insertion order —
// the order Extent serves, which downstream integration and query
// results observe.
type ClassExtent struct {
	Class   string             `json:"class"`
	Objects []CheckpointObject `json:"objects"`
}

// MemberCheckpoint is one member store's full snapshot.
type MemberCheckpoint struct {
	Name string `json:"name"`
	// NextOID preserves the allocation cursor exactly, including OIDs
	// consumed by staged-then-aborted transactions: a recovered store
	// must never re-issue an OID the pre-crash store handed out.
	NextOID uint64        `json:"next_oid"`
	Classes []ClassExtent `json:"classes"`
}

// Checkpoint is the full persisted state of a federation node.
type Checkpoint struct {
	// LSN is the last WAL record the snapshot includes; replay starts
	// after it.
	LSN     uint64
	Members []MemberCheckpoint
	// Derived holds the serialized derived artifacts, keyed by section
	// name ("derivation", "memo", "plans"). The store layer treats them
	// as opaque: the packages that own the types fill and consume them.
	Derived map[string][]byte
}

// liveSnapshot returns the store's snapshot sharing its attribute maps:
// valid only until the store next changes, so it is encoded under the
// lock that excludes commits and never handed out.
func (s *Store) liveSnapshot() MemberCheckpoint {
	classes := make([]string, 0, len(s.byClass))
	for cn, oids := range s.byClass {
		if len(oids) > 0 {
			classes = append(classes, cn)
		}
	}
	sort.Strings(classes)
	mc := MemberCheckpoint{Name: s.Name(), NextOID: uint64(s.nextOID), Classes: make([]ClassExtent, len(classes))}
	for i, cn := range classes {
		oids := s.byClass[cn]
		objs := make([]CheckpointObject, len(oids))
		for j, oid := range oids {
			objs[j] = CheckpointObject{OID: uint64(oid), Attrs: s.objs[oid].attrs}
		}
		mc.Classes[i] = ClassExtent{Class: cn, Objects: objs}
	}
	return mc
}

// SnapshotStore captures a member store's snapshot: every direct class
// extent in insertion order, with its own copy of every attribute map,
// and the OID allocation cursor.
func SnapshotStore(s *Store) (MemberCheckpoint, error) {
	mc := s.liveSnapshot()
	for _, ext := range mc.Classes {
		for i, o := range ext.Objects {
			cp := make(map[string]object.Value, len(o.Attrs))
			for k, v := range o.Attrs {
				cp[k] = v
			}
			ext.Objects[i].Attrs = cp
		}
	}
	return mc, nil
}

// reset empties the store's object state, keeping schema and constants.
func (s *Store) reset() {
	s.objs = make(map[object.OID]*Obj)
	s.byClass = make(map[string][]object.OID)
	s.nextOID = 1
}

// RestoreInto replaces the store's contents with the snapshot. The
// store must be built over the same schema the snapshot was taken from
// (class and attribute names are validated; a mismatch aborts with the
// store emptied rather than half-restored — the caller discards it).
// Constraint enforcement is intentionally skipped: the snapshot is a
// copy of a state every constraint already validated.
func (mc MemberCheckpoint) RestoreInto(s *Store) error {
	if mc.Name != s.Name() {
		return fmt.Errorf("restore: snapshot of %s cannot restore into store %s", mc.Name, s.Name())
	}
	s.reset()
	for _, ext := range mc.Classes {
		s.byClass[ext.Class] = make([]object.OID, 0, len(ext.Objects))
		for _, co := range ext.Objects {
			if err := s.validateAttrs(ext.Class, co.Attrs); err != nil {
				s.reset()
				return fmt.Errorf("restore %s: %w", mc.Name, err)
			}
			oid := object.OID(co.OID)
			if err := s.insertReserved(oid, ext.Class, co.Attrs); err != nil {
				s.reset()
				return fmt.Errorf("restore %s: %w", mc.Name, err)
			}
			if oid >= s.nextOID {
				s.nextOID = oid + 1
			}
		}
	}
	if mc.NextOID > uint64(s.nextOID) {
		s.nextOID = object.OID(mc.NextOID)
	}
	return nil
}

// encodeCheckpointBody writes c's body to w. Objects are appended into
// one reused chunk buffer that is written out whenever it fills, and
// the derived sections are written straight from their own slices, so
// the encoder never holds a copy of the whole payload.
func encodeCheckpointBody(w io.Writer, c *Checkpoint) error {
	b := make([]byte, 0, checkpointChunk+4<<10)
	var err error
	flush := func() {
		if err == nil && len(b) > 0 {
			_, err = w.Write(b)
		}
		b = b[:0]
	}
	b = binary.AppendUvarint(b, c.LSN)
	b = binary.AppendUvarint(b, uint64(len(c.Members)))
	for _, m := range c.Members {
		b = object.AppendString(b, m.Name)
		b = binary.AppendUvarint(b, m.NextOID)
		b = binary.AppendUvarint(b, uint64(len(m.Classes)))
		for _, ext := range m.Classes {
			b = object.AppendString(b, ext.Class)
			b = binary.AppendUvarint(b, uint64(len(ext.Objects)))
			for _, o := range ext.Objects {
				b = binary.AppendUvarint(b, o.OID)
				b = object.AppendAttrs(b, o.Attrs)
				if len(b) >= checkpointChunk {
					flush()
				}
			}
		}
	}
	names := make([]string, 0, len(c.Derived))
	for name := range c.Derived {
		names = append(names, name)
	}
	sort.Strings(names)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		sec := c.Derived[name]
		b = object.AppendString(b, name)
		b = binary.AppendUvarint(b, uint64(len(sec)))
		flush()
		if err == nil && len(sec) > 0 {
			_, err = w.Write(sec)
		}
	}
	flush()
	return err
}

// decodeCheckpointBody decodes a body written by encodeCheckpointBody.
// It is strict — counts bounded by the bytes left, classes and section
// names ascending, no object without an OID, no trailing bytes — so an
// accepted body re-encodes byte-identically. Derived sections alias b.
func decodeCheckpointBody(b []byte) (*Checkpoint, error) {
	// The count bounds are the shortest encodings: a member is at least
	// three bytes, a class, an object and a section at least two.
	r := &bodyReader{b: b}
	c := &Checkpoint{LSN: r.uvarint()}
	c.Members = make([]MemberCheckpoint, r.count(3))
	for i := range c.Members {
		m := &c.Members[i]
		m.Name = r.str()
		m.NextOID = r.uvarint()
		m.Classes = make([]ClassExtent, r.count(2))
		for j := range m.Classes {
			ext := &m.Classes[j]
			ext.Class = r.str()
			if j > 0 && ext.Class <= m.Classes[j-1].Class {
				r.failf("member %s: class %q out of order", m.Name, ext.Class)
			}
			ext.Objects = make([]CheckpointObject, r.count(2))
			for k := range ext.Objects {
				o := &ext.Objects[k]
				if o.OID = r.uvarint(); o.OID == 0 {
					r.failf("%s.%s: object without OID", m.Name, ext.Class)
				}
				o.Attrs = r.attrs()
			}
		}
	}
	nsec := r.count(2)
	prev := ""
	for i := 0; i < nsec; i++ {
		name := r.str()
		if i > 0 && name <= prev {
			r.failf("section %q out of order", name)
		}
		sec := r.raw(r.count(1))
		if r.err != nil {
			break
		}
		if c.Derived == nil {
			c.Derived = make(map[string][]byte, nsec)
		}
		c.Derived[name] = sec
		prev = name
	}
	r.end()
	if r.err != nil {
		return nil, r.err
	}
	return c, nil
}

// crcWriter folds everything written through it into a CRC32C.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, crcTable, p)
	return c.w.Write(p)
}

// CheckpointWriter is a checkpoint being written to a temporary file
// beside its target. Capture encodes the body, Commit makes the file
// durable and atomically replaces the previous checkpoint, and Abort
// discards it.
type CheckpointWriter struct {
	path string
	f    *os.File
	cw   crcWriter
	err  error
}

// CreateCheckpoint opens the temporary file for a checkpoint at path.
func CreateCheckpoint(path string) (*CheckpointWriter, error) {
	f, err := os.OpenFile(path+".tmp", os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	w := &CheckpointWriter{path: path, f: f, cw: crcWriter{w: f}}
	_, w.err = w.cw.Write([]byte(checkpointMagic))
	return w, nil
}

// Capture encodes a checkpoint of the live member stores at WAL
// position lsn, plus the derived sections. It reads the stores in
// place, so the caller must hold what excludes commits on them (the
// engine's read lock) until it returns.
func (w *CheckpointWriter) Capture(lsn uint64, members []*Store, derived map[string][]byte) error {
	c := &Checkpoint{LSN: lsn, Members: make([]MemberCheckpoint, len(members)), Derived: derived}
	for i, s := range members {
		c.Members[i] = s.liveSnapshot()
	}
	if w.err == nil {
		w.err = encodeCheckpointBody(&w.cw, c)
	}
	if w.err != nil {
		return fmt.Errorf("checkpoint: write: %w", w.err)
	}
	return nil
}

// Commit appends the checksum, fsyncs and closes the file, renames it
// over the target and syncs the directory. Readers see the old
// checkpoint or the new one, never a torn mix. On failure the
// temporary file is removed and the previous checkpoint stands.
func (w *CheckpointWriter) Commit() error {
	tmp := w.path + ".tmp"
	fail := func(stage string, err error) error {
		w.f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %s: %w", stage, err)
	}
	if w.err != nil {
		return fail("write", w.err)
	}
	if _, err := w.f.Write(binary.LittleEndian.AppendUint32(nil, w.cw.crc)); err != nil {
		return fail("write", err)
	}
	if err := w.f.Sync(); err != nil {
		return fail("sync", err)
	}
	if err := w.f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	if err := os.Rename(tmp, w.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	syncDir(filepath.Dir(w.path))
	return nil
}

// Abort discards the temporary file; the previous checkpoint stands.
func (w *CheckpointWriter) Abort() {
	w.f.Close()
	os.Remove(w.path + ".tmp")
}

// ErrNoCheckpoint reports that no checkpoint exists yet (a first boot,
// or a node that crashed before its first checkpoint).
var ErrNoCheckpoint = errors.New("no checkpoint")

// ReadCheckpoint reads and verifies a checkpoint written by Capture. A
// missing file returns ErrNoCheckpoint; a damaged one, or one in another
// format version, returns a hard error, because unlike a WAL tail a
// checkpoint is written atomically — damage means the storage itself
// lied.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, ErrNoCheckpoint
		}
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	c, err := parseCheckpoint(buf)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return c, nil
}

// parseCheckpoint verifies a checkpoint file image — format, checksum —
// and decodes its body.
func parseCheckpoint(buf []byte) (*Checkpoint, error) {
	n := len(checkpointMagic)
	if len(buf) < n || string(buf[:len(checkpointFamily)]) != checkpointFamily {
		return nil, fmt.Errorf("not a checkpoint (bad header)")
	}
	if magic := string(buf[:n]); magic != checkpointMagic {
		return nil, fmt.Errorf("checkpoint format %q is not readable by this build, which reads only %q", magic, checkpointMagic)
	}
	if len(buf) < n+checkpointTrailer {
		return nil, fmt.Errorf("truncated (%d bytes)", len(buf))
	}
	end := len(buf) - checkpointTrailer
	stored := binary.LittleEndian.Uint32(buf[end:])
	if got := crc32.Checksum(buf[:end], crcTable); got != stored {
		return nil, fmt.Errorf("checksum mismatch (stored %08x, computed %08x)", stored, got)
	}
	c, err := decodeCheckpointBody(buf[n:end])
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	return c, nil
}

// Member returns the named member's snapshot, or false.
func (c *Checkpoint) Member(name string) (MemberCheckpoint, bool) {
	for _, m := range c.Members {
		if m.Name == name {
			return m, true
		}
	}
	return MemberCheckpoint{}, false
}

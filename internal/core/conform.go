package core

import (
	"fmt"
	"sort"
	"strings"

	"interopdb/internal/expr"
	"interopdb/internal/object"
	"interopdb/internal/schema"
	"interopdb/internal/store"
	"interopdb/internal/tm"
)

// CObj is a conformed object: a component object brought into the common
// semantical context (attributes renamed and converted, object-value
// conflicts settled), or a virtual object created from values.
type CObj struct {
	Src     object.Ref // provenance; for virtual objects a synthetic ref
	Side    Side
	Class   string
	Attrs   map[string]object.Value
	Virtual bool
}

// Get implements expr.Object.
func (o *CObj) Get(attr string) (object.Value, bool) {
	v, ok := o.Attrs[attr]
	return v, ok
}

// Identity implements expr.Identifiable.
func (o *CObj) Identity() object.Ref { return o.Src }

// String renders the object for reports.
func (o *CObj) String() string {
	keys := make([]string, 0, len(o.Attrs))
	for k := range o.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + o.Attrs[k].String()
	}
	return fmt.Sprintf("%s[%s](%s)", o.Class, o.Src, strings.Join(parts, ","))
}

// CCon is a conformed constraint: the original constraint re-expressed in
// conformed terms (§4), carrying its objectivity status.
type CCon struct {
	Key     ConKey
	Kind    schema.ConstraintKind
	Side    Side
	Class   string // conformed owning class ("" for database constraints)
	Expr    expr.Node
	Status  Status
	Derived bool   // produced by §3 intraobject-condition derivation
	Note    string // conformation notes (imperfect conversion etc.)
	// Imperfect marks constraints whose conversion could not be carried
	// through exactly; they are excluded from derivation and entailment.
	Imperfect bool
	// Hidden marks constraints hidden by object-to-value conformation
	// (§4 subtask 1: hiding objects hides the constraints that involve
	// properties not included in the complex values).
	Hidden bool
}

// String renders the constraint.
func (c CCon) String() string {
	tag := c.Status.String()
	if c.Derived {
		tag += ",derived"
	}
	if c.Hidden {
		tag += ",hidden"
	}
	where := c.Class
	if where == "" {
		where = "(database)"
	}
	return fmt.Sprintf("%s on %s [%s]: %s", c.Key, where, tag, c.Expr)
}

// Conformed is the output of the conformation phase.
type Conformed struct {
	Spec *Spec
	// Conformed schemas per side (virtual classes added, attributes
	// renamed and retyped).
	LocalSchema, RemoteSchema *schema.Database
	// Conformed objects by side and most-specific conformed class.
	objs  map[Side]map[string][]*CObj
	byRef map[object.Ref]*CObj
	// Cons holds every conformed constraint of both sides.
	Cons []CCon
	// ImpliedEq are equality rules introduced by descriptivity
	// conformation (virtual objects ↔ remote objects).
	ImpliedEq []*EqRule
	// VirtualClasses names classes created during conformation, per side.
	VirtualClasses map[Side][]string
	// Hidden marks classes removed from a side's view by object-to-value
	// conformation; their extents are empty and their constraints hidden.
	Hidden map[Side]map[string]bool
	// Types maps conformed attribute paths to types, for the reasoner.
	Types map[string]object.Type
	// Consts merges both databases' named constants.
	Consts  map[string]object.Value
	virtSeq object.OID
	// Fed, when non-nil, marks this conformed world as the combined
	// state of an N-member federation: SchemaOf and MemberName index
	// members through it instead of the two-sided Local/Remote fields.
	// Pairwise pipeline runs leave it nil.
	Fed *FedInfo
}

// FedInfo describes the member layout of a federated (N-member)
// conformed world: one entry per Side value ever assigned. Detached
// members keep their slot (Side values are never reused) but are marked
// inactive. The schema recorded for a member is the conformed schema of
// the pair integration that attached it — a base member keeps the
// vocabulary of its first integration.
type FedInfo struct {
	// Names holds each member's database name, indexed by Side.
	Names []string
	// Schemas holds each member's conformed schema, indexed by Side.
	Schemas []*schema.Database
	// Specs holds each member's parsed database specification.
	Specs []*tm.DatabaseSpec
	// Active marks which slots belong to currently attached members.
	Active []bool
}

// SideOf resolves a member name to its Side slot (active members only).
func (f *FedInfo) SideOf(name string) (Side, bool) {
	for i, n := range f.Names {
		if f.Active[i] && n == name {
			return Side(i), true
		}
	}
	return 0, false
}

// SchemaOf returns the conformed schema of a side. In a federated world
// every attached member has its own Side slot; in a pairwise run the
// two sides are the local and remote schemas.
func (c *Conformed) SchemaOf(side Side) *schema.Database {
	if c.Fed != nil && int(side) < len(c.Fed.Schemas) {
		return c.Fed.Schemas[side]
	}
	if side == LocalSide {
		return c.LocalSchema
	}
	return c.RemoteSchema
}

// MemberName returns the database name of a side's member.
func (c *Conformed) MemberName(side Side) string {
	if c.Fed != nil && int(side) < len(c.Fed.Names) {
		return c.Fed.Names[side]
	}
	return c.Spec.DB(side).Schema.Name
}

// Objects returns the conformed direct instances of a class on a side.
func (c *Conformed) Objects(side Side, class string) []*CObj {
	return c.objs[side][class]
}

// Extent returns the conformed extension of a class (direct + subclass
// instances).
func (c *Conformed) Extent(side Side, class string) []*CObj {
	db := c.SchemaOf(side)
	var out []*CObj
	for _, cn := range append([]string{class}, db.Subclasses(class)...) {
		out = append(out, c.objs[side][cn]...)
	}
	return out
}

// AllObjects returns every conformed object of a side.
func (c *Conformed) AllObjects(side Side) []*CObj {
	var out []*CObj
	db := c.SchemaOf(side)
	for _, cls := range db.ClassNames() {
		out = append(out, c.objs[side][cls]...)
	}
	return out
}

// Deref resolves a reference to its conformed object.
func (c *Conformed) Deref(r object.Ref) (expr.Object, bool) {
	o, ok := c.byRef[r]
	return o, ok
}

// Env builds an evaluation environment over the conformed world with self
// bound to the given object.
func (c *Conformed) Env(self *CObj) *expr.Env {
	env := &expr.Env{
		Consts: c.Consts,
		Deref:  func(r object.Ref) (expr.Object, bool) { return c.Deref(r) },
	}
	if self != nil {
		attrs := map[string]bool{}
		for _, a := range c.SchemaOf(self.Side).AllAttrs(self.Class) {
			attrs[a.Name] = true
		}
		env.Vars = map[string]expr.Object{"self": self}
		env.SelfAttrs = attrs
		side := self.Side
		env.Ext = func(class string) []expr.Object { return c.extObjects(side, class) }
	}
	return env
}

func (c *Conformed) extObjects(side Side, class string) []expr.Object {
	ext := c.Extent(side, class)
	out := make([]expr.Object, len(ext))
	for i, o := range ext {
		out[i] = o
	}
	return out
}

// ConsOn returns the conformed constraints of the given kind attached to
// the class chain of the given class on a side (object constraints
// inherit; class constraints do not).
func (c *Conformed) ConsOn(side Side, class string, kind schema.ConstraintKind) []CCon {
	db := c.SchemaOf(side)
	var out []CCon
	classes := []string{class}
	if kind == schema.ObjectConstraint {
		classes = db.Supers(class)
	}
	for _, con := range c.Cons {
		if con.Side != side || con.Kind != kind || con.Hidden {
			continue
		}
		for _, cn := range classes {
			if con.Class == cn {
				out = append(out, con)
				break
			}
		}
	}
	return out
}

// Conform runs the conformation phase with default options.
func Conform(spec *Spec, local, remote *store.Store) (*Conformed, error) {
	return ConformOptions(spec, local, remote, Options{})
}

// ConformOptions runs the conformation phase of §4: object-value
// conflicts are settled by objectifying described values into virtual
// classes, equivalent properties are renamed and converted into the
// common domain, and every constraint is re-expressed in conformed
// terms. Constraint conformation — the rewrite-heavy stage — fans out
// across the worker pool; everything it reads (schemas, spec, hidden
// sets) is frozen by the earlier sequential stages, and each rewritten
// constraint lands in its own output slot, keeping Cons order stable.
func ConformOptions(spec *Spec, local, remote *store.Store, opts Options) (*Conformed, error) {
	if local.Name() != spec.Local.Schema.Name || remote.Name() != spec.Remote.Schema.Name {
		return nil, fmt.Errorf("stores %s, %s do not match spec databases %s, %s",
			local.Name(), remote.Name(), spec.Local.Schema.Name, spec.Remote.Schema.Name)
	}
	c := &Conformed{
		Spec:           spec,
		LocalSchema:    spec.Local.Schema.Clone(),
		RemoteSchema:   spec.Remote.Schema.Clone(),
		objs:           map[Side]map[string][]*CObj{LocalSide: {}, RemoteSide: {}},
		byRef:          map[object.Ref]*CObj{},
		VirtualClasses: map[Side][]string{},
		Hidden:         map[Side]map[string]bool{LocalSide: {}, RemoteSide: {}},
		Types:          map[string]object.Type{},
		Consts:         map[string]object.Value{},
		virtSeq:        1,
	}
	for k, v := range spec.Local.Consts {
		c.Consts[k] = v
	}
	for k, v := range spec.Remote.Consts {
		c.Consts[k] = v
	}

	// Descriptivity analysis first: which value attributes become object
	// references (the paper's object view of object-value conflicts).
	desc := map[Side]map[string]map[string]*DescRule{LocalSide: {}, RemoteSide: {}}
	for _, dr := range spec.DescRules {
		byClass := desc[dr.ValueSide]
		if byClass[dr.ValueClass] == nil {
			byClass[dr.ValueClass] = map[string]*DescRule{}
		}
		for _, a := range dr.ValueAttrs {
			byClass[dr.ValueClass][a] = dr
		}
	}

	if err := c.conformSchema(LocalSide, desc[LocalSide]); err != nil {
		return nil, err
	}
	if err := c.conformSchema(RemoteSide, desc[RemoteSide]); err != nil {
		return nil, err
	}
	c.applyValueViews()
	if err := c.conformObjects(LocalSide, local, desc[LocalSide]); err != nil {
		return nil, err
	}
	if err := c.conformObjects(RemoteSide, remote, desc[RemoteSide]); err != nil {
		return nil, err
	}
	c.conformConstraints(LocalSide, desc[LocalSide], opts.workers())
	c.conformConstraints(RemoteSide, desc[RemoteSide], opts.workers())
	c.collectTypes()
	return c, nil
}

// virtClassName names the virtual class objectifying values that describe
// objects of the given class (VirtPublisher in the paper's example).
func virtClassName(objectClass string) string { return "Virt" + objectClass }

// conformedAttrName resolves the conformed name and conversion of an
// attribute on a side (identity when no propeq covers it).
func (c *Conformed) conformedAttrName(side Side, class, attr string) (string, ConvFunc) {
	pe, ok := c.Spec.PropEqFor(side, class, attr)
	if !ok {
		return attr, idFunc{}
	}
	if side == LocalSide {
		return pe.Conformed, pe.CF
	}
	return pe.Conformed, pe.CFRemote
}

// conformSchema applies attribute renames/retypes and creates virtual
// classes on one side's cloned schema.
func (c *Conformed) conformSchema(side Side, desc map[string]map[string]*DescRule) error {
	db := c.SchemaOf(side)
	// Virtual classes for descriptivity (objectify direction only; value
	// views are applied in applyValueViews).
	for class, attrs := range desc {
		for _, dr := range attrs {
			if dr.ValueView {
				continue
			}
			vc := virtClassName(dr.ObjectClass)
			if _, ok := db.Class(vc); ok {
				continue
			}
			// The virtual class carries one attribute per described value
			// attribute, under its conformed name.
			nc := &schema.Class{Name: vc, Virtual: true}
			for _, a := range dr.ValueAttrs {
				orig, _, ok := c.Spec.DB(side).Schema.ResolveAttr(class, a)
				if !ok {
					return fmt.Errorf("descriptivity: no attribute %s.%s", class, a)
				}
				name, conv := c.conformedAttrName(side, class, a)
				nc.Attrs = append(nc.Attrs, schema.Attribute{
					Name: name, Type: conv.ApplyType(orig.Type.(object.Type)),
				})
			}
			if err := db.AddClass(nc); err != nil {
				return err
			}
			c.VirtualClasses[side] = append(c.VirtualClasses[side], vc)
			// Implied equality rule between the virtual class and the
			// described object class on the other side.
			cond := c.rewriteDescCond(side, class, dr)
			impl := &EqRule{
				Raw: tm.Rule{Name: dr.Raw.Name + "$virt", Kind: tm.RuleEq, Src: dr.Raw.Src},
			}
			if side == LocalSide {
				impl.LocalVar, impl.LocalClass = dr.ValueVar, vc
				impl.RemoteVar, impl.RemoteClass = dr.ObjectVar, dr.ObjectClass
			} else {
				impl.LocalVar, impl.LocalClass = dr.ObjectVar, dr.ObjectClass
				impl.RemoteVar, impl.RemoteClass = dr.ValueVar, vc
			}
			impl.Inter = splitConjuncts(cond)
			c.ImpliedEq = append(c.ImpliedEq, impl)
		}
	}
	// Attribute renames and retypes per propeq; objectified attributes
	// become references to the virtual class instead, value-view
	// described attributes keep their declared name and type.
	for _, cls := range db.Classes() {
		if cls.Virtual {
			continue
		}
		for i, a := range cls.Attrs {
			if byClass, ok := desc[clsOwning(c.Spec.DB(side).Schema, cls.Name, a.Name)]; ok {
				if dr, ok := byClass[a.Name]; ok {
					if !dr.ValueView {
						cls.Attrs[i].Type = object.ClassType{Class: virtClassName(dr.ObjectClass)}
					}
					continue
				}
			}
			name, conv := c.conformedAttrName(side, cls.Name, a.Name)
			cls.Attrs[i].Name = name
			cls.Attrs[i].Type = conv.ApplyType(a.Type.(object.Type))
		}
	}
	return nil
}

// applyValueViews hides the object classes of value-view descriptivity
// rules: reference attributes pointing at them become tuple-typed, and
// the classes' extents and constraints are suppressed (§4 subtask 1).
func (c *Conformed) applyValueViews() {
	for _, dr := range c.Spec.DescRules {
		if !dr.ValueView {
			continue
		}
		objSide := dr.ValueSide.Other()
		c.Hidden[objSide][dr.ObjectClass] = true
		db := c.SchemaOf(objSide)
		origDB := c.Spec.DB(objSide).Schema
		fields := map[string]object.Type{}
		for _, a := range origDB.AllAttrs(dr.ObjectClass) {
			name, conv := c.conformedAttrName(objSide, dr.ObjectClass, a.Name)
			fields[name] = conv.ApplyType(a.Type.(object.Type))
		}
		tt := object.TupleType{Fields: fields}
		for _, cls := range db.Classes() {
			for i, a := range cls.Attrs {
				if ct, ok := a.Type.(object.ClassType); ok && ct.Class == dr.ObjectClass {
					cls.Attrs[i].Type = tt
				}
			}
		}
	}
}

// clsOwning returns the class that declares the attribute (for desc map
// lookups keyed by the declaring class).
func clsOwning(db *schema.Database, class, attr string) string {
	if _, owner, ok := db.ResolveAttr(class, attr); ok {
		return owner
	}
	return class
}

// rewriteDescCond rewrites a descriptivity condition so that the value
// variable reads the virtual object's conformed attributes:
// O.publisher = R.name becomes O.name = R.name.
func (c *Conformed) rewriteDescCond(side Side, class string, dr *DescRule) expr.Node {
	attrSet := map[string]string{}
	for _, a := range dr.ValueAttrs {
		name, _ := c.conformedAttrName(side, class, a)
		attrSet[a] = name
	}
	return expr.Rewrite(dr.Cond, func(n expr.Node) expr.Node {
		p, ok := n.(expr.Path)
		if !ok {
			return nil
		}
		root, ok := p.Recv.(expr.Ident)
		if !ok || root.Name != dr.ValueVar {
			return nil
		}
		if nn, ok := attrSet[p.Attr]; ok {
			return expr.Path{Recv: p.Recv, Attr: nn}
		}
		return nil
	})
}

// attrConv is one attribute's conformed name and domain conversion, as
// resolved on a given class.
type attrConv struct {
	attr, name string
	conv       ConvFunc
}

// attrStep is one visible attribute of a class in a conformation plan.
// At most one of desc and hidden is set; otherwise the value is renamed
// and converted by the embedded attrConv.
type attrStep struct {
	attrConv
	// desc is the descriptivity rule describing the attribute: its
	// value stays a value (value view) or becomes a reference to the
	// virtual object built from virt.
	desc *DescRule
	virt []attrConv
	// hidden names the referenced class a value view hid; the reference
	// inlines as a tuple of that class's fields.
	hidden string
	fields []attrConv
}

// convPlan resolves the conformed name and conversion of each attribute
// as used on the class.
func (c *Conformed) convPlan(side Side, class string, attrs []string) []attrConv {
	out := make([]attrConv, len(attrs))
	for i, a := range attrs {
		name, conv := c.conformedAttrName(side, class, a)
		out[i] = attrConv{attr: a, name: name, conv: conv}
	}
	return out
}

// classPlan resolves, once per class, what conformation does with each
// of the class's visible attributes. Everything it reads — the original
// schema, the spec and the hidden set — is fixed before the object loop,
// so every object of the class follows the same plan.
func (c *Conformed) classPlan(side Side, class string, desc map[string]map[string]*DescRule) []attrStep {
	origDB := c.Spec.DB(side).Schema
	attrs := origDB.AllAttrs(class)
	plan := make([]attrStep, len(attrs))
	for i, a := range attrs {
		st := &plan[i]
		st.attr = a.Name
		if dr, ok := desc[clsOwning(origDB, class, a.Name)][a.Name]; ok {
			st.desc = dr
			if !dr.ValueView {
				st.virt = c.convPlan(side, class, dr.ValueAttrs)
			}
			continue
		}
		if ct, ok := a.Type.(object.ClassType); ok && c.Hidden[side][ct.Class] {
			st.hidden = ct.Class
			var names []string
			for _, fa := range origDB.AllAttrs(ct.Class) {
				names = append(names, fa.Name)
			}
			st.fields = c.convPlan(side, ct.Class, names)
			continue
		}
		st.name, st.conv = c.conformedAttrName(side, class, a.Name)
	}
	return plan
}

// conformObjects converts one side's store contents into conformed
// objects, creating virtual objects for described values. Each class's
// plan is resolved once and then applied to every object of the class.
func (c *Conformed) conformObjects(side Side, st *store.Store, desc map[string]map[string]*DescRule) error {
	origDB := c.Spec.DB(side).Schema
	// Virtual object dedup per virtual class: canonical key → ref.
	virt := map[string]map[string]object.Ref{}

	for _, clsName := range origDB.ClassNames() {
		if c.Hidden[side][clsName] {
			continue // value-view: the class's objects exist only as values
		}
		ext := st.DirectExtent(clsName)
		if len(ext) == 0 {
			continue
		}
		plan := c.classPlan(side, clsName, desc)
		if c.objs[side][clsName] == nil {
			c.objs[side][clsName] = make([]*CObj, 0, len(ext))
		}
		for _, o := range ext {
			co := &CObj{
				Src:   object.Ref{DB: st.Name(), OID: o.OID()},
				Side:  side,
				Class: clsName,
				Attrs: make(map[string]object.Value, len(plan)),
			}
			for i := range plan {
				step := &plan[i]
				v, ok := o.Get(step.attr)
				if !ok {
					continue
				}
				switch {
				case step.desc != nil && step.desc.ValueView:
					co.Attrs[step.attr] = v // value stays a value
				case step.desc != nil:
					ref, err := c.virtualFor(side, step.desc, step.virt, o, virt)
					if err != nil {
						return err
					}
					co.Attrs[step.attr] = ref
				case step.hidden != "":
					// References to hidden classes inline as tuple values.
					tup, err := hideRef(st, step.hidden, step.fields, v)
					if err != nil {
						return fmt.Errorf("conforming %s.%s of %s: %w", clsName, step.attr, co.Src, err)
					}
					co.Attrs[step.attr] = tup
				default:
					cv, err := step.conv.Apply(v)
					if err != nil {
						return fmt.Errorf("conforming %s.%s of %s: %w", clsName, step.attr, co.Src, err)
					}
					co.Attrs[step.name] = cv
				}
			}
			c.objs[side][clsName] = append(c.objs[side][clsName], co)
			c.byRef[co.Src] = co
		}
	}
	return nil
}

// hideRef converts a reference to a hidden class into the complex value
// describing the referenced object (conformed field names and values).
func hideRef(st *store.Store, class string, fields []attrConv, v object.Value) (object.Value, error) {
	ref, ok := v.(object.Ref)
	if !ok {
		if v.Kind() == object.KindNull {
			return v, nil
		}
		return nil, fmt.Errorf("expected a reference to %s, got %s", class, v)
	}
	target, ok := st.Get(ref.OID)
	if !ok {
		return object.Null{}, nil
	}
	vals := make(map[string]object.Value, len(fields))
	for _, f := range fields {
		fv, ok := target.Get(f.attr)
		if !ok {
			continue
		}
		cv, err := f.conv.Apply(fv)
		if err != nil {
			return nil, err
		}
		vals[f.name] = cv
	}
	return object.NewTuple(vals), nil
}

// virtualFor returns (creating on first use) the virtual object for the
// described value tuple of the given object; conv is the rule's value
// attributes as resolved on the object's class.
func (c *Conformed) virtualFor(side Side, dr *DescRule, conv []attrConv, o *store.Obj, virt map[string]map[string]object.Ref) (object.Ref, error) {
	vc := virtClassName(dr.ObjectClass)
	if virt[vc] == nil {
		virt[vc] = map[string]object.Ref{}
	}
	attrs := make(map[string]object.Value, len(conv))
	key := make([]byte, 0, 17*len(conv))
	for i, a := range conv {
		v, ok := o.Get(a.attr)
		if !ok {
			v = object.Null{}
		}
		cv, err := a.conv.Apply(v)
		if err != nil {
			return object.Ref{}, err
		}
		attrs[a.name] = cv
		if i > 0 {
			key = append(key, '|')
		}
		key = appendHex16(key, object.Hash(cv))
	}
	if ref, ok := virt[vc][string(key)]; ok {
		return ref, nil
	}
	ref := object.Ref{DB: "virt:" + vc, OID: c.virtSeq}
	c.virtSeq++
	vo := &CObj{Src: ref, Side: side, Class: vc, Attrs: attrs, Virtual: true}
	c.objs[side][vc] = append(c.objs[side][vc], vo)
	c.byRef[ref] = vo
	virt[vc][string(key)] = ref
	return ref, nil
}

// appendHex16 appends h as 16 zero-padded lower-case hex digits.
func appendHex16(b []byte, h uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, digits[(h>>uint(shift))&0xf])
	}
	return b
}

// conformConstraints re-expresses every constraint of a side in conformed
// terms: re-allocation to virtual classes, attribute substitution, domain
// conversion of literals, and aggregate-over renames (§4 subtasks 1–4).
// Each constraint's rewrite is independent and reads only state frozen
// before this stage, so the rewrites fan out across the worker pool; the
// results land in per-index slots and append in declaration order.
func (c *Conformed) conformConstraints(side Side, desc map[string]map[string]*DescRule, workers int) {
	db := c.Spec.DB(side).Schema
	var jobs []func() CCon
	for _, cls := range db.Classes() {
		for _, k := range cls.Constraints {
			jobs = append(jobs, func() CCon { return c.conformClassCon(side, desc, cls.Name, k) })
		}
	}
	for _, k := range db.DBCons {
		jobs = append(jobs, func() CCon { return c.conformDBCon(side, desc, k) })
	}
	out := make([]CCon, len(jobs))
	parallelFor(len(jobs), workers, func(i int) { out[i] = jobs[i]() })
	c.Cons = append(c.Cons, out...)
}

// conformClassCon rewrites one class-attached constraint.
func (c *Conformed) conformClassCon(side Side, desc map[string]map[string]*DescRule, clsName string, k schema.Constraint) CCon {
	db := c.Spec.DB(side).Schema
	key := ConKey{db.Name, clsName, k.Name}
	status := c.Spec.Status[key]
	node := k.Expr.(expr.Node)

	// §4 subtask 1, hiding direction: constraints of a class that
	// was cast into values are hidden with it.
	if c.Hidden[side][clsName] {
		return CCon{
			Key: key, Kind: k.Kind, Side: side, Class: clsName,
			Expr: node, Status: status, Hidden: true,
			Note: "hidden: " + clsName + " was cast into values (value view)",
		}
	}

	// Re-allocation (§4 subtask 1): a constraint touching only
	// described value attributes moves to the virtual class.
	if byClass, ok := desc[clsName]; ok && len(byClass) > 0 {
		// Consider only genuine attributes of the class: named
		// constants (KNOWNPUBLISHERS) are not attributes.
		var used []string
		for a := range expr.AttrsUsed(node) {
			if _, _, ok := db.ResolveAttr(clsName, a); ok {
				used = append(used, a)
			}
		}
		allDesc := len(used) > 0
		var dr *DescRule
		for _, a := range used {
			d, ok := byClass[a]
			if !ok {
				allDesc = false
				break
			}
			dr = d
		}
		if allDesc && dr != nil && !dr.ValueView {
			vc := virtClassName(dr.ObjectClass)
			rewritten := c.renameAttrsOnly(side, clsName, node)
			return CCon{
				Key: key, Kind: k.Kind, Side: side, Class: vc,
				Expr: rewritten, Status: status,
				Note: fmt.Sprintf("re-allocated from %s to virtual class %s", clsName, vc),
			}
		}
	}
	cf := &conformer{c: c, side: side, class: clsName, desc: desc}
	rewritten := cf.node(node)
	return CCon{
		Key: key, Kind: k.Kind, Side: side, Class: clsName,
		Expr: rewritten, Status: status,
		Imperfect: cf.imperfect, Note: strings.Join(cf.notes, "; "),
	}
}

// conformDBCon rewrites one database constraint.
func (c *Conformed) conformDBCon(side Side, desc map[string]map[string]*DescRule, k schema.Constraint) CCon {
	db := c.Spec.DB(side).Schema
	key := ConKey{db.Name, "", k.Name}
	node := k.Expr.(expr.Node)
	// A database constraint quantifying over a hidden class is hidden
	// with it (its extension no longer exists in the conformed view).
	if cls, ok := c.quantifiesHidden(side, node); ok {
		return CCon{
			Key: key, Kind: schema.DatabaseConstraint, Side: side, Class: "",
			Expr: node, Status: c.Spec.Status[key], Hidden: true,
			Note: "hidden: quantifies over " + cls + " which was cast into values (value view)",
		}
	}
	cf := &conformer{c: c, side: side, class: "", desc: desc}
	rewritten := cf.node(node)
	return CCon{
		Key: key, Kind: schema.DatabaseConstraint, Side: side, Class: "",
		Expr: rewritten, Status: c.Spec.Status[key],
		Imperfect: cf.imperfect, Note: strings.Join(cf.notes, "; "),
	}
}

// quantifiesHidden reports whether a formula binds a variable over a
// hidden class on the given side.
func (c *Conformed) quantifiesHidden(side Side, n expr.Node) (string, bool) {
	found := ""
	expr.Walk(n, func(x expr.Node) bool {
		if q, ok := x.(expr.Quant); ok {
			for _, b := range q.Binders {
				if c.Hidden[side][b.Class] {
					found = b.Class
					return false
				}
			}
		}
		return true
	})
	return found, found != ""
}

// renameAttrsOnly substitutes conformed attribute names without domain
// conversion — used when moving constraints onto virtual classes whose
// attribute values were already converted.
func (c *Conformed) renameAttrsOnly(side Side, class string, n expr.Node) expr.Node {
	return expr.Rewrite(n, func(x expr.Node) expr.Node {
		if id, ok := x.(expr.Ident); ok {
			if _, _, ok := c.Spec.DB(side).Schema.ResolveAttr(class, id.Name); ok {
				name, _ := c.conformedAttrName(side, class, id.Name)
				if name != id.Name {
					return expr.Ident{Name: name}
				}
			}
		}
		return nil
	})
}

// collectTypes builds the path → conformed type map for the reasoner.
// When both sides declare the same conformed attribute with different
// range bounds, the bounds are widened to their union so that no type
// assumption is unsound for either side's values.
func (c *Conformed) collectTypes() {
	put := func(path string, t object.Type) {
		have, ok := c.Types[path]
		if !ok {
			c.Types[path] = t
			return
		}
		hr, hok := have.(object.RangeType)
		tr, tok := t.(object.RangeType)
		switch {
		case hok && tok:
			if tr.Lo < hr.Lo {
				hr.Lo = tr.Lo
			}
			if tr.Hi > hr.Hi {
				hr.Hi = tr.Hi
			}
			c.Types[path] = hr
		case have.EqualType(t):
			// identical, keep
		default:
			// Conflicting declarations: drop the entry rather than risk
			// an unsound bound.
			delete(c.Types, path)
		}
	}
	add := func(db *schema.Database) {
		for _, cls := range db.Classes() {
			for _, a := range db.AllAttrs(cls.Name) {
				t := a.Type.(object.Type)
				put(a.Name, t)
				if ct, ok := t.(object.ClassType); ok {
					if target, ok := db.Class(ct.Class); ok {
						for _, ta := range db.AllAttrs(target.Name) {
							put(a.Name+"."+ta.Name, ta.Type.(object.Type))
						}
					}
				}
			}
		}
	}
	add(c.LocalSchema)
	add(c.RemoteSchema)
}

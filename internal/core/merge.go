package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"interopdb/internal/expr"
	"interopdb/internal/object"
)

// GObj is a global (integrated) object: the merge of an equivalence class
// of conformed objects, with property values determined by the decision
// functions.
type GObj struct {
	ID    int
	Parts map[Side][]*CObj
	Attrs map[string]object.Value
	// Classes holds the global class names the object belongs to.
	Classes map[string]bool
}

// Get implements expr.Object.
func (g *GObj) Get(attr string) (object.Value, bool) {
	v, ok := g.Attrs[attr]
	return v, ok
}

// Identity implements expr.Identifiable.
func (g *GObj) Identity() object.Ref {
	return object.Ref{DB: "global", OID: object.OID(g.ID)}
}

// Merged reports whether the object has constituents in at least two
// member databases (the two sides of a pairwise integration, any pair of
// members in a federated view).
func (g *GObj) Merged() bool {
	sides := 0
	for _, ms := range g.Parts {
		if len(ms) > 0 {
			sides++
		}
	}
	return sides >= 2
}

// String renders the object.
func (g *GObj) String() string {
	var classes []string
	for c := range g.Classes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	keys := make([]string, 0, len(g.Attrs))
	for k := range g.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + g.Attrs[k].String()
	}
	return fmt.Sprintf("g%d{%s}(%s)", g.ID, strings.Join(classes, ","), strings.Join(parts, ","))
}

// ISAEdge is a derived subclass relationship in the global lattice.
type ISAEdge struct{ Sub, Super string }

// VirtualSubclass records an emergent intersection class (the paper's
// RefereedProceedings): objects similar to both a local and a remote
// class, where neither extension contains the other.
type VirtualSubclass struct {
	Name        string
	LocalClass  string
	RemoteClass string
	MemberIDs   []int
}

// ApproxSuper records the virtual common superclass created by an
// approximate-similarity rule.
type ApproxSuper struct {
	Name        string
	LocalClass  string // the Sim target side's class C
	RemoteClass string // the source class C'
	MemberIDs   []int
}

// GlobalView is the result of the merging phase: the integrated object
// set with its emergent classification.
type GlobalView struct {
	Conformed *Conformed
	Objects   []*GObj
	// classExt maps global class names to member objects.
	classExt map[string][]*GObj
	// Names of all global classes in deterministic order.
	ClassNames []string
	// Origin of plain global classes: side + conformed class.
	Origin map[string]struct {
		Side  Side
		Class string
	}
	ISA               []ISAEdge
	VirtualSubclasses []VirtualSubclass
	ApproxSupers      []ApproxSuper
	byRef             map[object.Ref]*GObj
	// nextID allocates global object IDs (lazily initialised past the
	// merge-time maximum; never reused after a delete).
	nextID int
	// simCondCache memoizes conformSimConds per rule for reclassification.
	simCondCache map[*SimRule][]expr.Node
	// fedNames, when non-nil (federated views), pins the global name of
	// every (member side, conformed class) pair. Names are assigned when
	// a member attaches and frozen for its lifetime, so membership
	// changes can never rename a class that queries, plans or indexes
	// already reference.
	fedNames map[Side]map[string]string
}

// sides lists the Side values of the view's members: the attach-ordered
// member slots of a federated view (detached slots included — their
// Parts are empty, so iterating them is a no-op), the fixed local/remote
// pair otherwise.
func (v *GlobalView) sides() []Side {
	if f := v.Conformed.Fed; f != nil {
		out := make([]Side, len(f.Schemas))
		for i := range out {
			out[i] = Side(i)
		}
		return out
	}
	return []Side{LocalSide, RemoteSide}
}

// Extent returns the members of a global class.
func (v *GlobalView) Extent(class string) []*GObj { return v.classExt[class] }

// GlobalName returns the global name of a conformed class: the plain name
// when unambiguous, otherwise qualified with the database name. In a
// federated view the frozen per-member name table decides first — names
// assigned at attach time survive later membership changes unchanged —
// and the ambiguity fallback counts every active member's schema.
func (v *GlobalView) GlobalName(side Side, class string) string {
	if v.fedNames != nil {
		if n, ok := v.fedNames[side][class]; ok {
			return n
		}
	}
	if f := v.Conformed.Fed; f != nil {
		declared := 0
		for i, db := range f.Schemas {
			if !f.Active[i] {
				continue
			}
			if _, ok := db.Class(class); ok {
				declared++
			}
		}
		if declared > 1 && int(side) < len(f.Names) {
			return f.Names[side] + "." + class
		}
		return class
	}
	_, inL := v.Conformed.LocalSchema.Class(class)
	_, inR := v.Conformed.RemoteSchema.Class(class)
	if inL && inR {
		return v.Conformed.Spec.DB(side).Schema.Name + "." + class
	}
	return class
}

// Deref resolves global and constituent references to global objects.
func (v *GlobalView) Deref(r object.Ref) (expr.Object, bool) {
	o, ok := v.byRef[r]
	return o, ok
}

// Env builds an evaluation environment over the global view.
func (v *GlobalView) Env(self *GObj) *expr.Env {
	env := &expr.Env{
		Consts: v.Conformed.Consts,
		Ext: func(class string) []expr.Object {
			ext := v.Extent(class)
			out := make([]expr.Object, len(ext))
			for i, o := range ext {
				out[i] = o
			}
			return out
		},
		Deref: func(r object.Ref) (expr.Object, bool) { return v.Deref(r) },
	}
	if self != nil {
		attrs := map[string]bool{}
		for a := range self.Attrs {
			attrs[a] = true
		}
		// Attributes declared on any class the object belongs to are
		// known (possibly null): a locally-kept publication classified
		// under Proceedings via a Sim rule has no ref? value, and
		// predicates over it must see null, not an unknown identifier.
		for cls := range self.Classes {
			org, ok := v.Origin[cls]
			if !ok {
				continue
			}
			for _, a := range v.Conformed.SchemaOf(org.Side).AllAttrs(org.Class) {
				attrs[a.Name] = true
			}
		}
		env.Vars = map[string]expr.Object{"self": self}
		env.SelfAttrs = attrs
	}
	return env
}

// DeclaresAttr reports whether any class of the object declares the
// attribute — the same resolution Env's SelfAttrs uses, so callers can
// predict whether an identifier evaluates to Null for an object missing
// it (declared), to a same-named constant, or to an unknown-identifier
// error (undeclared). The extent-index planner uses it to decline
// attributes whose per-row resolution is not simply the stored value.
func (v *GlobalView) DeclaresAttr(g *GObj, attr string) bool {
	for cls := range g.Classes {
		org, ok := v.Origin[cls]
		if !ok {
			continue
		}
		for _, a := range v.Conformed.SchemaOf(org.Side).AllAttrs(org.Class) {
			if a.Name == attr {
				return true
			}
		}
	}
	return false
}

// ApplyInsert registers an object newly shipped to a component database in
// the integrated view, so the serving path (queries, key-uniqueness
// validation) reflects it without re-running integration. The object is
// classified along its origin class's inheritance chain; Sim-rule
// classification, entity resolution against the other side, and PropEq
// value conversion are not re-run — attrs are stored as given and must
// already be in the conformed (global) domain, the same domain the view
// engine's Validate evaluates; a full re-integration remains the way to
// pick those up. src is the component-store reference the insert
// received, registered for Deref.
func (v *GlobalView) ApplyInsert(class string, attrs map[string]object.Value, src object.Ref) (*GObj, error) {
	org, ok := v.Origin[class]
	if !ok {
		return nil, fmt.Errorf("no origin class for global class %s", class)
	}
	cp := make(map[string]object.Value, len(attrs))
	mp := make(map[string]object.Value, len(attrs))
	for k, val := range attrs {
		cp[k] = val
		mp[k] = val
	}
	g := &GObj{
		ID:      v.nextObjectID(),
		Parts:   map[Side][]*CObj{},
		Attrs:   cp,
		Classes: map[string]bool{},
	}
	// The constituent gets its own attribute map: sharing cp would let a
	// later in-place constituent write (ApplyUpdate fans values out to
	// the parts) mutate the global object's map behind a frozen
	// snapshot's back.
	g.Parts[org.Side] = append(g.Parts[org.Side], &CObj{
		Src: src, Side: org.Side, Class: org.Class, Attrs: mp,
	})
	for _, cn := range v.Conformed.SchemaOf(org.Side).Supers(org.Class) {
		v.addToClass(g, org.Side, cn)
	}
	v.Objects = append(v.Objects, g)
	v.byRef[g.Identity()] = g
	v.byRef[src] = g
	return g, nil
}

// Merge runs the merging phase: entity resolution over the equality rules
// (explicit and descriptivity-implied), value fusion through decision
// functions, Sim-rule classification, and derivation of the global class
// lattice from the merged extensions.
func Merge(c *Conformed) (*GlobalView, error) {
	v := &GlobalView{
		Conformed: c,
		classExt:  map[string][]*GObj{},
		Origin: map[string]struct {
			Side  Side
			Class string
		}{},
	}
	rng := rand.New(rand.NewSource(c.Spec.Seed))
	plan := newMergePlan(v)
	locals, remotes := c.AllObjects(LocalSide), c.AllObjects(RemoteSide)
	n := len(locals) + len(remotes)

	// --- Entity resolution ---------------------------------------------
	parent := make(map[*CObj]*CObj, n)
	var find func(o *CObj) *CObj
	find = func(o *CObj) *CObj {
		p, ok := parent[o]
		if !ok || p == o {
			parent[o] = o
			return o
		}
		r := find(p)
		parent[o] = r
		return r
	}
	union := func(a, b *CObj) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}

	rules := append([]*EqRule{}, c.Spec.EqRules...)
	rules = append(rules, c.ImpliedEq...)
	for _, r := range rules {
		if err := v.resolveRule(r, union); err != nil {
			return nil, err
		}
	}

	// --- Global object construction ------------------------------------
	groups := make(map[*CObj][]*CObj, n)
	var order []*CObj
	collect := func(objs []*CObj) {
		for _, o := range objs {
			root := find(o)
			if _, seen := groups[root]; !seen {
				order = append(order, root)
			}
			groups[root] = append(groups[root], o)
		}
	}
	collect(locals)
	collect(remotes)

	v.Objects = make([]*GObj, 0, len(order))
	v.byRef = make(map[object.Ref]*GObj, len(order)+n)
	for i, root := range order {
		g := &GObj{
			ID:      i + 1,
			Parts:   map[Side][]*CObj{},
			Classes: map[string]bool{},
		}
		for _, m := range groups[root] {
			g.Parts[m.Side] = append(g.Parts[m.Side], m)
		}
		v.fuse(g, rng, plan)
		v.Objects = append(v.Objects, g)
		v.byRef[g.Identity()] = g
		for _, ms := range g.Parts {
			for _, m := range ms {
				v.byRef[m.Src] = g
			}
		}
	}

	// --- Classification --------------------------------------------------
	v.classifyConstituents(plan)
	if err := v.classifySim(plan); err != nil {
		return nil, err
	}
	v.buildLattice()
	return v, nil
}

// resolveRule finds matching (local, remote) pairs for one equality rule
// and unions them. A hash join on the first equi-join conjunct avoids the
// quadratic pair scan when possible.
func (v *GlobalView) resolveRule(r *EqRule, union func(a, b *CObj)) error {
	c := v.Conformed
	locals := c.Extent(LocalSide, r.LocalClass)
	remotes := c.Extent(RemoteSide, r.RemoteClass)
	if len(locals) == 0 || len(remotes) == 0 {
		return nil
	}
	conds := v.conformRuleConds(r)

	// One environment serves every candidate pair of the rule.
	env := &expr.Env{
		Vars:   map[string]expr.Object{},
		Consts: c.Consts,
		Deref:  func(x object.Ref) (expr.Object, bool) { return c.Deref(x) },
	}
	match := func(lo, ro *CObj) (bool, error) {
		env.Vars[r.LocalVar] = lo
		env.Vars[r.RemoteVar] = ro
		for _, cond := range conds {
			ok, err := env.EvalBool(cond)
			if err != nil {
				return false, fmt.Errorf("rule %s: %w", r.Raw.Name, err)
			}
			if !ok {
				return false, nil
			}
		}
		return true, nil
	}

	la, ra, hasEqui := equiJoinAttrs(conds, r.LocalVar, r.RemoteVar)
	if hasEqui && !c.Spec.DisableHashJoin {
		idx := map[uint64][]*CObj{}
		for _, ro := range remotes {
			if val, ok := ro.Get(ra); ok && val.Kind() != object.KindNull {
				h := object.Hash(val)
				idx[h] = append(idx[h], ro)
			}
		}
		for _, lo := range locals {
			val, ok := lo.Get(la)
			if !ok || val.Kind() == object.KindNull {
				continue
			}
			for _, ro := range idx[object.Hash(val)] {
				ok, err := match(lo, ro)
				if err != nil {
					return err
				}
				if ok {
					union(lo, ro)
				}
			}
		}
		return nil
	}
	for _, lo := range locals {
		for _, ro := range remotes {
			ok, err := match(lo, ro)
			if err != nil {
				return err
			}
			if ok {
				union(lo, ro)
			}
		}
	}
	return nil
}

// conformRuleConds rewrites the rule's conjuncts so attribute references
// use conformed names (the rule was written against the original
// schemas). Descriptivity-implied rules are already conformed.
func (v *GlobalView) conformRuleConds(r *EqRule) []expr.Node {
	c := v.Conformed
	if strings.HasSuffix(r.Raw.Name, "$virt") {
		return append(append([]expr.Node{}, r.Inter...), append(r.IntraLocal, r.IntraRemote...)...)
	}
	varSide := map[string]struct {
		side  Side
		class string
	}{
		r.LocalVar:  {LocalSide, r.LocalClass},
		r.RemoteVar: {RemoteSide, r.RemoteClass},
	}
	rw := func(n expr.Node) expr.Node {
		return expr.Rewrite(n, func(x expr.Node) expr.Node {
			p, ok := x.(expr.Path)
			if !ok {
				return nil
			}
			root, ok := p.Recv.(expr.Ident)
			if !ok {
				return nil
			}
			vs, ok := varSide[root.Name]
			if !ok {
				return nil
			}
			name, _ := c.conformedAttrName(vs.side, vs.class, p.Attr)
			if name != p.Attr {
				return expr.Path{Recv: p.Recv, Attr: name}
			}
			return nil
		})
	}
	var out []expr.Node
	for _, n := range r.Inter {
		out = append(out, rw(n))
	}
	for _, n := range r.IntraLocal {
		out = append(out, rw(n))
	}
	for _, n := range r.IntraRemote {
		out = append(out, rw(n))
	}
	return out
}

// equiJoinAttrs extracts the first conjunct of shape lv.a = rv.b.
func equiJoinAttrs(conds []expr.Node, lv, rv string) (string, string, bool) {
	for _, cond := range conds {
		b, ok := cond.(expr.Binary)
		if !ok || b.Op != expr.OpEq {
			continue
		}
		lp, lok := b.L.(expr.Path)
		rp, rok := b.R.(expr.Path)
		if !lok || !rok {
			continue
		}
		lroot, lok := lp.Recv.(expr.Ident)
		rroot, rok := rp.Recv.(expr.Ident)
		if !lok || !rok {
			continue
		}
		switch {
		case lroot.Name == lv && rroot.Name == rv:
			return lp.Attr, rp.Attr, true
		case lroot.Name == rv && rroot.Name == lv:
			return rp.Attr, lp.Attr, true
		}
	}
	return "", "", false
}

// mergePlan holds the per-class facts Merge's object loops consult. Each
// entry is a function of the conformed schemas and the spec alone, which
// are immutable once conformation ends, so it is resolved on the first
// object of its class and reused for every later one.
type mergePlan struct {
	v      *GlobalView
	propEq map[propEqKey]*PropEq
	chains map[chainKey][]classRef
}

// propEqKey identifies a propEqByConformed lookup: the conformed
// attribute and what it depends on of the local constituent.
type propEqKey struct {
	name, class string
	virtual     bool
}

type chainKey struct {
	side  Side
	class string
}

// classRef is one conformed class of a chain with its global name.
type classRef struct{ class, global string }

func newMergePlan(v *GlobalView) *mergePlan {
	return &mergePlan{v: v, propEq: map[propEqKey]*PropEq{}, chains: map[chainKey][]classRef{}}
}

// propEqFor is propEqByConformed resolved once per (conformed attribute,
// local class) for a non-nil local constituent.
func (p *mergePlan) propEqFor(name string, localPart *CObj) *PropEq {
	k := propEqKey{name, localPart.Class, localPart.Virtual}
	pe, ok := p.propEq[k]
	if !ok {
		pe = p.v.propEqByConformed(name, localPart)
		p.propEq[k] = pe
	}
	return pe
}

// chain returns the class's conformed inheritance chain on a side, each
// class paired with its global name.
func (p *mergePlan) chain(side Side, class string) []classRef {
	k := chainKey{side, class}
	ch, ok := p.chains[k]
	if !ok {
		for _, cn := range p.v.Conformed.SchemaOf(side).Supers(class) {
			ch = append(ch, classRef{cn, p.v.GlobalName(side, cn)})
		}
		p.chains[k] = ch
	}
	return ch
}

// fuse computes the global attribute values of a group through the
// decision functions (§2.3: "the value of global properties is determined
// from the conformed local and remote ones, using a decision function
// where applicable"). Attributes are fused in sorted order, so the
// seeded rng is drawn from in the same order on every run.
func (v *GlobalView) fuse(g *GObj, rng *rand.Rand, plan *mergePlan) {
	locals, remotes := g.Parts[LocalSide], g.Parts[RemoteSide]
	if len(locals) == 0 || len(remotes) == 0 {
		// A group drawn from one side never reaches a decision function:
		// each attribute takes its first non-null value in part order.
		parts := locals
		if len(parts) == 0 {
			parts = remotes
		}
		g.Attrs = make(map[string]object.Value, len(parts[0].Attrs))
		for _, m := range parts {
			for a, val := range m.Attrs {
				if _, set := g.Attrs[a]; !set && val.Kind() != object.KindNull {
					g.Attrs[a] = val
				}
			}
		}
		return
	}
	names := map[string]bool{}
	for _, ms := range [][]*CObj{locals, remotes} {
		for _, m := range ms {
			for a := range m.Attrs {
				names[a] = true
			}
		}
	}
	ordered := make([]string, 0, len(names))
	for a := range names {
		ordered = append(ordered, a)
	}
	sort.Strings(ordered)
	g.Attrs = make(map[string]object.Value, len(ordered))

	firstVal := func(side Side, attr string) (object.Value, *CObj) {
		for _, m := range g.Parts[side] {
			if val, ok := m.Attrs[attr]; ok && val.Kind() != object.KindNull {
				return val, m
			}
		}
		return nil, nil
	}
	for _, a := range ordered {
		lv, lm := firstVal(LocalSide, a)
		rv, _ := firstVal(RemoteSide, a)
		switch {
		case lv != nil && rv != nil:
			if pe := plan.propEqFor(a, lm); pe != nil {
				g.Attrs[a] = pe.DF.Combine(lv, rv, rng)
			} else {
				// No declared equivalence: same-named attributes without a
				// propeq behave like conflict-ignoring (documented).
				g.Attrs[a] = anyFunc{}.Combine(lv, rv, rng)
			}
		case lv != nil:
			g.Attrs[a] = lv
		case rv != nil:
			g.Attrs[a] = rv
		}
	}
}

// propEqByConformed finds the property equivalence whose conformed name
// matches and whose local class covers the given constituent.
func (v *GlobalView) propEqByConformed(name string, localPart *CObj) *PropEq {
	for _, pe := range v.Conformed.Spec.PropEqs {
		if pe.Conformed != name {
			continue
		}
		if localPart == nil {
			return pe
		}
		db := v.Conformed.Spec.Local.Schema
		if localPart.Virtual || db.IsA(localPart.Class, pe.Raw.LocalClass) || db.IsA(pe.Raw.LocalClass, localPart.Class) {
			return pe
		}
	}
	return nil
}

// classifyConstituents adds each global object to the global classes of
// its constituents' conformed class chains.
func (v *GlobalView) classifyConstituents(plan *mergePlan) {
	for _, g := range v.Objects {
		// Fixed side order keeps class registration (and therefore the
		// derived lattice's edge order) deterministic.
		for _, side := range []Side{LocalSide, RemoteSide} {
			for _, m := range g.Parts[side] {
				for _, cr := range plan.chain(side, m.Class) {
					v.addToGlobalClass(g, side, cr.class, cr.global)
				}
			}
		}
	}
}

func (v *GlobalView) addToClass(g *GObj, side Side, class string) {
	v.addToGlobalClass(g, side, class, v.GlobalName(side, class))
}

// addToGlobalClass is addToClass with the class's global name resolved.
func (v *GlobalView) addToGlobalClass(g *GObj, side Side, class, name string) {
	if g.Classes[name] {
		return
	}
	g.Classes[name] = true
	if _, seen := v.Origin[name]; !seen {
		v.Origin[name] = struct {
			Side  Side
			Class string
		}{side, class}
		v.ClassNames = append(v.ClassNames, name)
	}
	v.classExt[name] = append(v.classExt[name], g)
}

// classifySim applies the similarity rules: source-side objects whose
// intraobject condition holds join the target class (strict) or the
// virtual common superclass (approximate). The target's class chain and
// the evaluation environment are set up once per rule.
func (v *GlobalView) classifySim(plan *mergePlan) error {
	c := v.Conformed
	for _, r := range c.Spec.SimRules {
		targetSide := r.SrcSide.Other()
		conds := v.conformSimConds(r)
		target := plan.chain(targetSide, r.Target)
		env := &expr.Env{
			Vars:   map[string]expr.Object{},
			Consts: c.Consts,
			Deref:  func(x object.Ref) (expr.Object, bool) { return c.Deref(x) },
		}
		var approxMembers []int
		for _, o := range c.Extent(r.SrcSide, r.SrcClass) {
			g, ok := v.byRef[o.Src]
			if !ok {
				continue
			}
			env.Vars[r.SrcVar] = o
			match := true
			for _, cond := range conds {
				ok, err := env.EvalBool(cond)
				if err != nil {
					return fmt.Errorf("rule %s: %w", r.Raw.Name, err)
				}
				if !ok {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			if r.Approximate() {
				approxMembers = append(approxMembers, g.ID)
				v.addVirtualMember(g, r.Virtual)
			} else {
				for _, cr := range target {
					v.addToGlobalClass(g, targetSide, cr.class, cr.global)
				}
			}
		}
		if r.Approximate() {
			// ext(Cv) ⊇ ext(C): the target class's extension is included.
			for _, g := range v.Extent(v.GlobalName(targetSide, r.Target)) {
				v.addVirtualMember(g, r.Virtual)
				approxMembers = append(approxMembers, g.ID)
			}
			v.ApproxSupers = append(v.ApproxSupers, ApproxSuper{
				Name:        r.Virtual,
				LocalClass:  r.Target,
				RemoteClass: r.SrcClass,
				MemberIDs:   dedupInts(approxMembers),
			})
		}
	}
	return nil
}

func (v *GlobalView) addVirtualMember(g *GObj, class string) {
	if g.Classes[class] {
		return
	}
	g.Classes[class] = true
	// Register the class name on its FIRST member only (keyed on the
	// extent map: virtual classes never get an Origin entry, so keying
	// on Origin — as this once did — appended the name again for every
	// member, duplicating it in ClassNames, the report and the lattice
	// loops).
	if _, seen := v.classExt[class]; !seen {
		if _, hasOrigin := v.Origin[class]; !hasOrigin {
			v.ClassNames = append(v.ClassNames, class)
		}
	}
	v.classExt[class] = append(v.classExt[class], g)
}

// conformSimConds rewrites a Sim rule's intraobject conjuncts into
// conformed terms with the full §4 machinery: attribute renames, literal
// domain conversion (a local-scale rating threshold doubles), and
// descriptivity rewiring (O.publisher reads O.publisher.name).
func (v *GlobalView) conformSimConds(r *SimRule) []expr.Node {
	c := v.Conformed
	desc := map[string]map[string]*DescRule{}
	for _, dr := range c.Spec.DescRules {
		if dr.ValueSide != r.SrcSide {
			continue
		}
		if desc[dr.ValueClass] == nil {
			desc[dr.ValueClass] = map[string]*DescRule{}
		}
		for _, a := range dr.ValueAttrs {
			desc[dr.ValueClass][a] = dr
		}
	}
	out := make([]expr.Node, len(r.Intra))
	for i, n := range r.Intra {
		cf := &conformer{
			c: c, side: r.SrcSide, class: "", desc: desc,
			varClasses: map[string]string{r.SrcVar: r.SrcClass},
		}
		out[i] = cf.node(n)
	}
	return out
}

// buildLattice derives subclass edges from extension containment and
// creates virtual intersection subclasses for Sim-related class pairs
// with partial overlap (the paper's RefereedProceedings).
func (v *GlobalView) buildLattice() {
	ext := func(name string) map[int]bool {
		out := make(map[int]bool, len(v.classExt[name]))
		for _, g := range v.classExt[name] {
			out[g.ID] = true
		}
		return out
	}
	exts := map[string]map[int]bool{}
	for _, name := range v.ClassNames {
		exts[name] = ext(name)
	}
	subset := func(a, b map[int]bool) bool {
		if len(a) == 0 || len(a) > len(b) {
			return false
		}
		for id := range a {
			if !b[id] {
				return false
			}
		}
		return true
	}
	for _, a := range v.ClassNames {
		for _, b := range v.ClassNames {
			if a == b {
				continue
			}
			if subset(exts[a], exts[b]) {
				v.ISA = append(v.ISA, ISAEdge{Sub: a, Super: b})
			}
		}
	}
	// Virtual intersection subclasses for Sim-related pairs.
	for _, r := range v.Conformed.Spec.SimRules {
		if r.Approximate() {
			continue
		}
		srcName := v.GlobalName(r.SrcSide, r.SrcClass)
		tgtName := v.GlobalName(r.SrcSide.Other(), r.Target)
		se, te := exts[srcName], exts[tgtName]
		var inter []int
		for id := range se {
			if te[id] {
				inter = append(inter, id)
			}
		}
		if len(inter) == 0 || subset(se, te) || subset(te, se) {
			continue
		}
		sort.Ints(inter)
		name := tgtName + "_" + strings.ReplaceAll(srcName, ".", "_")
		dup := false
		for _, vs := range v.VirtualSubclasses {
			if vs.Name == name {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		vs := VirtualSubclass{Name: name, LocalClass: tgtName, RemoteClass: srcName, MemberIDs: inter}
		v.VirtualSubclasses = append(v.VirtualSubclasses, vs)
		for _, id := range inter {
			v.addVirtualMember(v.Objects[id-1], name)
		}
		v.ISA = append(v.ISA,
			ISAEdge{Sub: name, Super: srcName},
			ISAEdge{Sub: name, Super: tgtName},
		)
	}
}

func dedupInts(in []int) []int {
	sort.Ints(in)
	out := in[:0]
	for i, x := range in {
		if i == 0 || x != in[i-1] {
			out = append(out, x)
		}
	}
	return out
}

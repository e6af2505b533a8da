// Package fixture populates component databases with the instance data
// used by the paper's worked examples, shared by tests, examples,
// benchmarks and the CLI.
package fixture

import (
	"fmt"

	"interopdb/internal/object"
	"interopdb/internal/store"
	"interopdb/internal/tm"
)

// Options tweak the Figure 1 population.
type Options struct {
	// PriceConflict adds the §5.1.3 book whose (libprice, shopprice) are
	// (26,29) locally and (22,25) remotely, making the trust-fused global
	// state violate libprice <= shopprice.
	PriceConflict bool
	// Scale appends Scale extra copies of the core catalog — the
	// equality-merged VLDB proceedings on both sides, the library-only
	// SIGMOD proceedings, and the bookseller-only workshop notes — each
	// under unique ISBNs/titles. Extents (and the number of merged
	// global objects) grow linearly while every integrity constraint
	// keeps holding up to MaxScale; benchmarks and the parallel
	// differential tests use it to grow the Figure 1 workload without
	// switching to the synthetic generator. Zero means the paper's
	// original instances only.
	Scale int
}

// MaxScale is the largest Options.Scale Figure1Stores accepts. CSLibrary's
// Publication.cc2 keeps the sum of ourprice below MAX = 100000; the
// original instances sum to 285 (311 with PriceConflict) and each scale
// step adds 140, so Scale 712 sums to 99965 (99991) and Scale 713 would
// break the constraint.
const MaxScale = 712

// Figure1Stores builds the CSLibrary and Bookseller stores with the
// paper's running instances:
//
//   - "Proceedings of the 22nd VLDB Conference" exists in both databases
//     (same ISBN) — the equality-merged object.
//   - A refereed CAiSE proceedings exists only at the bookseller — the
//     Sim-imported object that populates the emergent RefereedProceedings
//     intersection class.
//   - A non-refereed workshop proceedings exercises rule r4.
//   - A monograph and several library-only publications fill out the
//     extensions.
//
// It panics, like MustInsert, when opt.Scale exceeds MaxScale: the
// instances would violate the library's own constraints.
func Figure1Stores(opt Options) (local, remote *store.Store) {
	if opt.Scale > MaxScale {
		panic(fmt.Sprintf("fixture: Figure1Stores scale %d exceeds MaxScale %d (CSLibrary Publication.cc2 would fail)", opt.Scale, MaxScale))
	}
	lib := tm.Figure1Library()
	bs := tm.Figure1Bookseller()
	local = store.New(lib.Schema, lib.Consts)
	remote = store.New(bs.Schema, bs.Consts)
	// Populate with enforcement deferred (db1 only holds once every
	// publisher has an item); tests assert CheckAll() is empty afterwards.
	local.Enforce = false
	remote.Enforce = false
	ieee := remote.MustInsert("Publisher", attrs("name", object.Str("IEEE"), "location", object.Str("New York")))
	acm := remote.MustInsert("Publisher", attrs("name", object.Str("ACM"), "location", object.Str("New York")))
	springer := remote.MustInsert("Publisher", attrs("name", object.Str("Springer"), "location", object.Str("Berlin")))

	ref := func(oid object.OID) object.Ref { return object.Ref{DB: "Bookseller", OID: oid} }
	remote.MustInsert("Proceedings", attrs(
		"title", object.Str("Proceedings of the 22nd VLDB Conference"),
		"isbn", object.Str("vldb96"),
		"publisher", ref(ieee),
		"authors", object.NewSet(object.Str("Vijayaraman")),
		"shopprice", object.Real(80), "libprice", object.Real(78),
		"ref?", object.Bool(true), "rating", object.Int(8),
	))
	remote.MustInsert("Proceedings", attrs(
		"title", object.Str("Proceedings of CAiSE"),
		"isbn", object.Str("caise96"),
		"publisher", ref(springer),
		"authors", object.NewSet(object.Str("Iivari")),
		"shopprice", object.Real(60), "libprice", object.Real(55),
		"ref?", object.Bool(true), "rating", object.Int(7),
	))
	remote.MustInsert("Proceedings", attrs(
		"title", object.Str("Workshop Notes on Interoperation"),
		"isbn", object.Str("wkshp1"),
		"publisher", ref(springer),
		"authors", object.NewSet(object.Str("Various")),
		"shopprice", object.Real(30), "libprice", object.Real(25),
		"ref?", object.Bool(false), "rating", object.Int(5),
	))
	remote.MustInsert("Monograph", attrs(
		"title", object.Str("Transaction Processing"),
		"isbn", object.Str("tp-book"),
		"publisher", ref(acm),
		"authors", object.NewSet(object.Str("Gray"), object.Str("Reuter")),
		"shopprice", object.Real(90), "libprice", object.Real(85),
		"subjects", object.NewSet(object.Str("databases"), object.Str("systems")),
	))
	if opt.PriceConflict {
		remote.MustInsert("Monograph", attrs(
			"title", object.Str("Price Conflict Book"),
			"isbn", object.Str("price-conflict"),
			"publisher", ref(acm),
			"shopprice", object.Real(25), "libprice", object.Real(22),
			"subjects", object.NewSet(object.Str("economics")),
		))
	}

	// CSLibrary. Ratings are on the 1..5 scale (conformed ×2 to 1..10).
	local.MustInsert("RefereedPubl", attrs(
		"title", object.Str("Proceedings of the 22nd VLDB Conference"),
		"isbn", object.Str("vldb96"),
		"publisher", object.Str("IEEE"),
		"shopprice", object.Real(80), "ourprice", object.Real(75),
		"editors", object.NewSet(object.Str("Vijayaraman"), object.Str("Buchmann")),
		"rating", object.Int(4), "avgAccRate", object.Real(0.18),
	))
	local.MustInsert("RefereedPubl", attrs(
		"title", object.Str("Proceedings of SIGMOD"),
		"isbn", object.Str("sigmod96"),
		"publisher", object.Str("ACM"),
		"shopprice", object.Real(70), "ourprice", object.Real(65),
		"editors", object.NewSet(object.Str("Jagadish")),
		"rating", object.Int(3), "avgAccRate", object.Real(0.2),
	))
	local.MustInsert("NonRefereedPubl", attrs(
		"title", object.Str("Database Trends"),
		"isbn", object.Str("trends1"),
		"publisher", object.Str("Springer"),
		"shopprice", object.Real(40), "ourprice", object.Real(35),
		"editors", object.NewSet(object.Str("Smith")),
		"rating", object.Int(2), "authAffil", object.Str("UT"),
	))
	local.MustInsert("ProfessionalPubl", attrs(
		"title", object.Str("DB2 Handbook"),
		"isbn", object.Str("db2hb"),
		"publisher", object.Str("Addison-Wesley"),
		"shopprice", object.Real(50), "ourprice", object.Real(45),
		"authors", object.NewSet(object.Str("Jones")),
	))
	local.MustInsert("ScientificPubl", attrs(
		"title", object.Str("Data Engineering Bulletin"),
		"isbn", object.Str("debull"),
		"publisher", object.Str("IEEE"),
		"shopprice", object.Real(20), "ourprice", object.Real(15),
		"editors", object.NewSet(object.Str("Lomet")),
		"rating", object.Int(2),
	))
	// A refereed journal: in RefereedPubl but never in Proceedings, so
	// that the Proceedings/RefereedPubl extensions overlap only partially
	// and the emergent intersection class of Figure 2 arises.
	local.MustInsert("RefereedPubl", attrs(
		"title", object.Str("Journal of the ACM"),
		"isbn", object.Str("jacm"),
		"publisher", object.Str("ACM"),
		"shopprice", object.Real(55), "ourprice", object.Real(50),
		"editors", object.NewSet(object.Str("Chandra")),
		"rating", object.Int(4), "avgAccRate", object.Real(0.15),
	))
	if opt.PriceConflict {
		local.MustInsert("Publication", attrs(
			"title", object.Str("Price Conflict Book"),
			"isbn", object.Str("price-conflict"),
			"publisher", object.Str("ACM"),
			"shopprice", object.Real(29), "ourprice", object.Real(26),
		))
	}
	// Scaled copies of the core catalog: one merged pair, one
	// library-only and one bookseller-only publication per step.
	for i := 1; i <= opt.Scale; i++ {
		sfx := fmt.Sprintf("-c%d", i)
		remote.MustInsert("Proceedings", attrs(
			"title", object.Str("Proceedings of the 22nd VLDB Conference"+sfx),
			"isbn", object.Str("vldb96"+sfx),
			"publisher", ref(ieee),
			"authors", object.NewSet(object.Str("Vijayaraman")),
			"shopprice", object.Real(80), "libprice", object.Real(78),
			"ref?", object.Bool(true), "rating", object.Int(8),
		))
		local.MustInsert("RefereedPubl", attrs(
			"title", object.Str("Proceedings of the 22nd VLDB Conference"+sfx),
			"isbn", object.Str("vldb96"+sfx),
			"publisher", object.Str("IEEE"),
			"shopprice", object.Real(80), "ourprice", object.Real(75),
			"editors", object.NewSet(object.Str("Vijayaraman"), object.Str("Buchmann")),
			"rating", object.Int(4), "avgAccRate", object.Real(0.18),
		))
		local.MustInsert("RefereedPubl", attrs(
			"title", object.Str("Proceedings of SIGMOD"+sfx),
			"isbn", object.Str("sigmod96"+sfx),
			"publisher", object.Str("ACM"),
			"shopprice", object.Real(70), "ourprice", object.Real(65),
			"editors", object.NewSet(object.Str("Jagadish")),
			"rating", object.Int(3), "avgAccRate", object.Real(0.2),
		))
		remote.MustInsert("Proceedings", attrs(
			"title", object.Str("Workshop Notes on Interoperation"+sfx),
			"isbn", object.Str("wkshp1"+sfx),
			"publisher", ref(springer),
			"authors", object.NewSet(object.Str("Various")),
			"shopprice", object.Real(30), "libprice", object.Real(25),
			"ref?", object.Bool(false), "rating", object.Int(5),
		))
	}
	local.Enforce = true
	remote.Enforce = true
	return local, remote
}

// ArchiveStore builds the UnivArchive store — the third member of the
// federation scenarios:
//
//   - The VLDB proceedings record shares its ISBN with the
//     library/bookseller copies, so attaching the archive turns that
//     merged object three-way.
//   - A well-scored SIGMOD conference record merges with the
//     library-only SIGMOD proceedings and joins the ScholarlyLike
//     virtual superclass through rule a2.
//   - A poorly-scored workshop record stays out of ScholarlyLike (the
//     negative case), and a thesis record exists only in the archive.
//
// opt.Scale appends, per step, one archive copy of the scaled VLDB
// proceedings (merging with the Figure1Stores copies) and one archive-
// only conference record — the same linear growth Figure1Stores uses.
func ArchiveStore(opt Options) *store.Store {
	spec := tm.Figure1UnivArchive()
	st := store.New(spec.Schema, spec.Consts)
	st.MustInsert("ConfRecord", attrs(
		"title", object.Str("Proceedings of the 22nd VLDB Conference"),
		"isbn", object.Str("vldb96"),
		"keeper", object.Str("Main stacks"),
		"price", object.Real(74), "pages", object.Int(620),
		"reviewed", object.Bool(true), "score", object.Int(88),
	))
	st.MustInsert("ConfRecord", attrs(
		"title", object.Str("Proceedings of SIGMOD"),
		"isbn", object.Str("sigmod96"),
		"keeper", object.Str("Main stacks"),
		"price", object.Real(66), "pages", object.Int(480),
		"reviewed", object.Bool(true), "score", object.Int(85),
	))
	st.MustInsert("ConfRecord", attrs(
		"title", object.Str("Regional DB Workshop Notes"),
		"isbn", object.Str("regwkshp"),
		"keeper", object.Str("Annex"),
		"price", object.Real(12), "pages", object.Int(90),
		"reviewed", object.Bool(false), "score", object.Int(40),
	))
	st.MustInsert("ThesisRecord", attrs(
		"title", object.Str("A Thesis on Federated Databases"),
		"isbn", object.Str("thesis1"),
		"keeper", object.Str("Theses room"),
		"price", object.Real(0), "pages", object.Int(210),
		"degree", object.Str("PhD"),
	))
	for i := 1; i <= opt.Scale; i++ {
		sfx := fmt.Sprintf("-c%d", i)
		st.MustInsert("ConfRecord", attrs(
			"title", object.Str("Proceedings of the 22nd VLDB Conference"+sfx),
			"isbn", object.Str("vldb96"+sfx),
			"keeper", object.Str("Main stacks"),
			"price", object.Real(74), "pages", object.Int(620),
			"reviewed", object.Bool(true), "score", object.Int(88),
		))
		st.MustInsert("ConfRecord", attrs(
			"title", object.Str("Archive Symposium Digest"+sfx),
			"isbn", object.Str("archsym"+sfx),
			"keeper", object.Str("Annex"),
			"price", object.Real(20), "pages", object.Int(130),
			"reviewed", object.Bool(true), "score", object.Int(75),
		))
	}
	return st
}

// PersonnelStores builds the introduction's department databases: one
// employee in DB1 only, one in DB2 only, and one registered in both
// departments (ssn 101) whose reimbursements the company policy averages.
func PersonnelStores() (db1, db2 *store.Store) {
	s1 := tm.Personnel1()
	s2 := tm.Personnel2()
	db1 = store.New(s1.Schema, s1.Consts)
	db2 = store.New(s2.Schema, s2.Consts)
	db1.MustInsert("Employee", attrs(
		"ssn", object.Str("100"), "salary", object.Real(1200), "trav_reimb", object.Int(10),
	))
	db1.MustInsert("Employee", attrs(
		"ssn", object.Str("101"), "salary", object.Real(1400), "trav_reimb", object.Int(20),
	))
	db2.MustInsert("Employee", attrs(
		"ssn", object.Str("101"), "salary", object.Real(1600), "trav_reimb", object.Int(24),
	))
	db2.MustInsert("Employee", attrs(
		"ssn", object.Str("102"), "salary", object.Real(1000), "trav_reimb", object.Int(14),
	))
	return db1, db2
}

// attrs builds an attribute map from alternating name/value pairs.
func attrs(kv ...any) map[string]object.Value {
	out := make(map[string]object.Value, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		out[kv[i].(string)] = kv[i+1].(object.Value)
	}
	return out
}

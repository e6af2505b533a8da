package main

import (
	"fmt"
	"math/rand"
	"sort"

	"interopdb/internal/object"
	"interopdb/internal/view"
)

// Every key, literal and planted violation below is a pure function of
// the run's seed: the same seed gives the same load, the same query
// stream and the same commit sequence.

const (
	// servedItems and servedLibrary are the objects the served
	// workloads load on top of the figure1 fixture: Bookseller items
	// (Item, Proceedings, Monograph) and CSLibrary publications.
	servedItems   = 2400
	servedLibrary = 600
	// loadBatch is the number of inserts per load transaction.
	loadBatch = 200
	// keySpace is the range ad-hoc point literals are drawn from: ten
	// times the engine's per-class plan-cache bound (4096 plans), so
	// most ad-hoc requests build a new plan.
	keySpace = 50000
	// rangeSteps is the number of distinct lower bounds of the ad-hoc
	// narrow-range template (also over ten times the plan bound).
	rangeSteps = 47500
	// vldbTitle is the title of the fixture's merged VLDB proceedings,
	// the object every write transaction updates.
	vldbTitle = "Proceedings of the 22nd VLDB Conference"
	// proceedingsOC1 is the objective Bookseller constraint a planted
	// violation breaks; the rejection must name it.
	proceedingsOC1 = "publisher.name = 'IEEE' implies ref? = true"
)

// Bookseller publisher OIDs in the figure1 fixture.
const (
	pubIEEE = 1
	pubACM  = 2
)

func bsRef(oid object.OID) object.Ref { return object.Ref{DB: "Bookseller", OID: oid} }

var authorPool = []string{"Gray", "Reuter", "Stonebraker", "Ullman", "Widom", "Codd", "Bernstein", "Apers"}
var libPublishers = []string{"IEEE", "ACM", "Springer"}

// price draws a shop price in whole cents and a library price at most
// equal to it (Item.oc1: libprice <= shopprice).
func price(rng *rand.Rand) (shop, lib float64) {
	cents := 500 + rng.Intn(9500)
	return float64(cents) / 100, float64(cents*(70+rng.Intn(31))/100) / 100
}

func authors(rng *rand.Rand) object.Set {
	a := authorPool[rng.Intn(len(authorPool))]
	b := authorPool[rng.Intn(len(authorPool))]
	return object.NewSet(object.Str(a), object.Str(b))
}

// servedLoad is the seeded load of the served workloads: insert
// mutations in load order, Bookseller and CSLibrary objects interleaved.
// Every object has a profile (class, publisher, ref?, rating band) fixed
// by its index in a seeded permutation, so each seed loads the same
// number of objects of each profile: the seed moves keys, prices and
// order, not the shape of the member extents.
func servedLoad(seed int64) []view.Mutation {
	rng := rand.New(rand.NewSource(seed))
	bkeys := rng.Perm(keySpace)[:servedItems]
	lkeys := rng.Perm(keySpace)[:servedLibrary]
	bprof := rng.Perm(servedItems)
	lprof := rng.Perm(servedLibrary)
	ops := make([]view.Mutation, 0, servedItems+servedLibrary)
	li := 0
	for i, n := range bkeys {
		ops = append(ops, booksellerObject(rng, n, bprof[i]))
		// One library object after every four Bookseller ones.
		if i%4 == 3 && li < len(lkeys) {
			ops = append(ops, libraryObject(rng, lkeys[li], lprof[li]))
			li++
		}
	}
	for ; li < len(lkeys); li++ {
		ops = append(ops, libraryObject(rng, lkeys[li], lprof[li]))
	}
	return ops
}

// booksellerObject builds Bookseller object n with profile p: half
// plain Items, three in ten Proceedings, two in ten Monographs.
func booksellerObject(rng *rand.Rand, n, p int) view.Mutation {
	shop, lib := price(rng)
	pub := object.OID(1 + (p/10)%3)
	attrs := map[string]object.Value{
		"isbn":      object.Str(fmt.Sprintf("b-%05d", n)),
		"shopprice": object.Real(shop),
		"libprice":  object.Real(lib),
		"authors":   authors(rng),
		"publisher": bsRef(pub),
	}
	class := "Item"
	switch k := p % 10; {
	case k < 5:
		attrs["title"] = object.Str(fmt.Sprintf("Volume %d", n))
	case k < 8:
		// Proceedings.oc1-oc3: IEEE ones are refereed, refereed ones
		// rate at least 7, ACM ones at least 6.
		class = "Proceedings"
		attrs["title"] = object.Str(fmt.Sprintf("Symposium %d", n))
		ref := pub == pubIEEE || (p/30)%2 == 0
		band := p / 60
		rating := 7 + band%4
		switch {
		case !ref && pub == pubACM:
			rating = 6 + band%5
		case !ref:
			rating = 1 + band%10
		}
		attrs["ref?"] = object.Bool(ref)
		attrs["rating"] = object.Int(rating)
	default:
		class = "Monograph"
		attrs["title"] = object.Str(fmt.Sprintf("Monograph %d", n))
		attrs["subjects"] = object.NewSet(object.Str("databases"))
	}
	return view.Mutation{Kind: view.MutInsert, Class: class, Attrs: attrs}
}

// libraryObject builds CSLibrary publication n with profile p. Prices
// stay low so the sum constraint Publication.cc2 keeps holding.
func libraryObject(rng *rand.Rand, n, p int) view.Mutation {
	cents := 500 + rng.Intn(3500)
	shop := float64(cents) / 100
	our := float64(cents*(50+rng.Intn(51))/100) / 100
	attrs := map[string]object.Value{
		"title":     object.Str(fmt.Sprintf("Report %d", n)),
		"isbn":      object.Str(fmt.Sprintf("l-%05d", n)),
		"publisher": object.Str(libPublishers[(p/10)%len(libPublishers)]),
		"shopprice": object.Real(shop),
		"ourprice":  object.Real(our),
	}
	editors := object.NewSet(object.Str(authorPool[rng.Intn(len(authorPool))]))
	band := p / 30
	class := "Publication"
	switch k := p % 10; {
	case k < 2:
	case k < 5:
		class = "RefereedPubl"
		attrs["editors"] = editors
		attrs["rating"] = object.Int(2 + band%3)
		attrs["avgAccRate"] = object.Real(float64(10+rng.Intn(30)) / 100)
	case k < 7:
		class = "NonRefereedPubl"
		attrs["editors"] = editors
		attrs["rating"] = object.Int(1 + band%3)
		attrs["authAffil"] = object.Str("UT")
	case k < 9:
		class = "ProfessionalPubl"
		attrs["authors"] = authors(rng)
	default:
		class = "ScientificPubl"
		attrs["editors"] = editors
		attrs["rating"] = object.Int(1 + band%3)
	}
	return view.Mutation{Kind: view.MutInsert, Class: class, Attrs: attrs}
}

// batches splits ops into load transactions.
func batches(ops []view.Mutation, size int) [][]view.Mutation {
	var out [][]view.Mutation
	for len(ops) > 0 {
		n := min(size, len(ops))
		out = append(out, ops[:n])
		ops = ops[n:]
	}
	return out
}

// loadedKeys returns, in load order, the isbn of every loaded object
// whose key starts with prefix ('b' Bookseller, 'l' CSLibrary).
func loadedKeys(ops []view.Mutation, prefix byte) []string {
	var out []string
	for _, m := range ops {
		s := string(m.Attrs["isbn"].(object.Str))
		if s[0] == prefix {
			out = append(out, s)
		}
	}
	return out
}

// adhocQuery returns the next ad-hoc query text of connection B: half
// point lookups, half narrow price ranges, literals drawn uniformly
// from key spaces over ten times the per-class plan-cache bound.
func adhocQuery(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return fmt.Sprintf("select title, shopprice from Item where isbn = 'b-%05d'", rng.Intn(keySpace))
	}
	lo := 5 + float64(rng.Intn(rangeSteps))/500
	return fmt.Sprintf("select title, shopprice from Item where shopprice >= %.3f and shopprice < %.3f", lo, lo+0.05)
}

// loadedPrices returns the sorted shop prices of the loaded objects
// of the given global classes.
func loadedPrices(ops []view.Mutation, classes ...string) []float64 {
	var out []float64
	for _, m := range ops {
		for _, c := range classes {
			if m.Class == c {
				out = append(out, float64(m.Attrs["shopprice"].(object.Real)))
			}
		}
	}
	sort.Float64s(out)
	return out
}

// priceRange picks a price range holding about n loaded prices. The
// bounds are chosen by rank, not by value, so every seed's range
// selects the same number of rows and the run's cost does not depend
// on the seed.
func priceRange(rng *rand.Rand, prices []float64, n int) (lo, hi string) {
	j := rng.Intn(len(prices) - n - 1)
	return fmt.Sprintf("%.2f", prices[j]), fmt.Sprintf("%.2f", prices[j+n])
}

// hotQueries is connection A's prepared hot set on serve_read: one
// query per plan shape the paper's optimiser distinguishes.
func hotQueries(seed int64, ops []view.Mutation) []string {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	bk := loadedKeys(ops, 'b')
	lk := loadedKeys(ops, 'l')
	items := loadedPrices(ops, "Item", "Proceedings", "Monograph")
	procs := loadedPrices(ops, "Proceedings")
	ilo, ihi := priceRange(rng, items, 20)
	plo, phi := priceRange(rng, procs, 60)
	return []string{
		// key point lookup
		fmt.Sprintf("select title, shopprice from Item where isbn = '%s'", bk[rng.Intn(len(bk))]),
		// index range
		fmt.Sprintf("select title, shopprice from Item where shopprice >= %s and shopprice < %s", ilo, ihi),
		// range plus residual
		fmt.Sprintf("select title, rating from Proceedings where shopprice >= %s and shopprice < %s and contains(title, '%d')", plo, phi, rng.Intn(10)),
		// a conjunct the objective Proceedings.oc1 implies, so the
		// planner drops it
		fmt.Sprintf("select title from Proceedings where shopprice >= %.2f and (publisher.name = 'IEEE' implies ref? = true)", procs[len(procs)-100]),
		// refuted outright by the objective Proceedings.oc1
		"select title from Proceedings where publisher.name = 'IEEE' and ref? = false",
		// library-side point lookup
		fmt.Sprintf("select title from Publication where isbn = '%s'", lk[rng.Intn(len(lk))]),
		// merged class, conformed rating
		"select title, rating from RefereedPubl where rating >= 8 and shopprice < 40",
		// a tiny class
		"select name, location from Publisher where location = 'Berlin'",
	}
}

// writeReads is connection B's prepared read set on serve_write: reads
// over the classes the writer inserts into and updates.
func writeReads(seed int64, ops []view.Mutation) []string {
	rng := rand.New(rand.NewSource(seed ^ 0x4ead))
	lo, hi := priceRange(rng, loadedPrices(ops, "Item", "Proceedings", "Monograph"), 20)
	procs := loadedPrices(ops, "Proceedings")
	return []string{
		fmt.Sprintf("select title, shopprice from Item where shopprice >= %s and shopprice < %s", lo, hi),
		"select title from Item where isbn = 'vldb96'",
		fmt.Sprintf("select title from Proceedings where shopprice >= %.2f and (publisher.name = 'IEEE' implies ref? = true)", procs[len(procs)-100]),
		"select title from Proceedings where publisher.name = 'IEEE' and ref? = false",
	}
}

// writeTx is one transaction of the serve_write writer. Valid
// transactions insert one Item (routed to Bookseller) and retitle the
// merged vldb96 object, whose update fans out to both members. Every
// tenth transaction is planted: a valid Item insert plus an IEEE
// Proceedings with ref? = false, which the objective Proceedings.oc1
// refutes, so the whole batch must be rejected before shipping.
type writeTx struct {
	ops     []view.Mutation
	planted bool
	isbn    string // the Item the transaction inserts
	shop    float64
	title   string // vldb96's title after a valid transaction
}

func genWriteTx(rng *rand.Rand, i, vldbID int) writeTx {
	shop, lib := price(rng)
	tx := writeTx{planted: i%10 == 9, shop: shop}
	prefix := "w"
	if tx.planted {
		prefix = "p"
	}
	tx.isbn = fmt.Sprintf("%s-%06d", prefix, i)
	tx.ops = append(tx.ops, view.Mutation{Kind: view.MutInsert, Class: "Item", Attrs: map[string]object.Value{
		"title":     object.Str(fmt.Sprintf("Written %d", i)),
		"isbn":      object.Str(tx.isbn),
		"publisher": bsRef(object.OID(1 + rng.Intn(3))),
		"authors":   authors(rng),
		"shopprice": object.Real(shop),
		"libprice":  object.Real(lib),
	}})
	if tx.planted {
		tx.ops = append(tx.ops, view.Mutation{Kind: view.MutInsert, Class: "Proceedings", Attrs: map[string]object.Value{
			"title":     object.Str(fmt.Sprintf("Planted %d", i)),
			"isbn":      object.Str(fmt.Sprintf("q-%06d", i)),
			"publisher": bsRef(pubIEEE),
			"shopprice": object.Real(shop),
			"libprice":  object.Real(lib),
			"ref?":      object.Bool(false),
			"rating":    object.Int(1 + rng.Intn(10)),
		}})
		return tx
	}
	tx.title = fmt.Sprintf("%s (printing %d)", vldbTitle, i)
	tx.ops = append(tx.ops, view.Mutation{Kind: view.MutUpdate, Class: "Publication", ID: vldbID,
		Attrs: map[string]object.Value{"title": object.Str(tx.title)}})
	return tx
}

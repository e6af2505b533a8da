package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"interopdb"
	"interopdb/internal/object"
	"interopdb/internal/server"
	"interopdb/internal/view"
	"interopdb/internal/wire"
)

const (
	tenant = "figure1"
	// checkpointEvery is serve_write's checkpoint cadence: short enough
	// that several checkpoints fall inside every measured window.
	checkpointEvery = 2 * time.Second
	// sampleEvery keeps one served answer in this many for the row
	// digest comparison against the reference engine.
	sampleEvery = 97
	maxSamples  = 400
)

// setUpServed starts a daemon and loads the seeded objects through the
// binary transport's Tx path, setupReps times; it keeps the last daemon
// running and returns each set-up's wall time.
func setUpServed(cfg config, load []view.Mutation, durable bool) (*daemon, []float64, error) {
	var d *daemon
	var times []float64
	for r := 0; r < setupReps; r++ {
		if d != nil {
			d.stop()
		}
		dataDir := ""
		if durable {
			dataDir = filepath.Join(cfg.work, fmt.Sprintf("data-%d", r))
		}
		t0 := time.Now()
		nd, err := startDaemon(cfg.interopd, dataDir, checkpointEvery)
		if err != nil {
			return nil, nil, err
		}
		d = nd
		if err := loadDaemon(d, load); err != nil {
			d.stop()
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return d, times, nil
}

func loadDaemon(d *daemon, load []view.Mutation) error {
	c, err := wire.Dial(d.wireAddr)
	if err != nil {
		return err
	}
	defer c.Close()
	for i, b := range batches(load, loadBatch) {
		if _, _, err := c.Tx(context.Background(), tenant, b, false); err != nil {
			return fmt.Errorf("load batch %d: %w", i, err)
		}
	}
	return nil
}

// httpClient is connection B of serve_read: one keep-alive HTTP/JSON
// connection sending ad-hoc query text.
type httpClient struct {
	c    *http.Client
	base string
}

func newHTTPClient(addr string) *httpClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &httpClient{c: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: "http://" + addr}
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// query posts one query and decodes its rows; the status is returned
// alongside any error so callers can tell refusals from failures.
func (h *httpClient) query(q string) ([]view.Row, int, error) {
	body, err := json.Marshal(map[string]string{"q": q})
	if err != nil {
		return nil, 0, err
	}
	resp, err := h.c.Post(h.base+"/v1/"+tenant+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var qr struct {
		Rows []map[string]server.WireValue `json:"rows"`
	}
	if err := json.Unmarshal(data, &qr); err != nil {
		return nil, resp.StatusCode, err
	}
	rows := make([]view.Row, len(qr.Rows))
	for i, r := range qr.Rows {
		attrs, err := server.DecodeAttrs(r)
		if err != nil {
			return nil, resp.StatusCode, err
		}
		rows[i] = view.Row(attrs)
	}
	return rows, resp.StatusCode, nil
}

// getJSON fetches a daemon JSON endpoint into v.
func (h *httpClient) getJSON(path string, v any) error {
	resp, err := h.c.Get(h.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// planCounters reads the tenant's plan-cache counters from /metrics.
func (h *httpClient) planCounters() (hits, misses, solver int64, err error) {
	var m struct {
		Tenants map[string]struct {
			PlanHits      int64 `json:"plan_hits"`
			PlanMisses    int64 `json:"plan_misses"`
			SolverQueries int64 `json:"solver_queries"`
		} `json:"tenants"`
	}
	if err := h.getJSON("/metrics", &m); err != nil {
		return 0, 0, 0, err
	}
	t := m.Tenants[tenant]
	return t.PlanHits, t.PlanMisses, t.SolverQueries, nil
}

// classify counts a failed operation by kind.
func classify(f *failures, err error, status int) {
	var we *wire.Error
	switch {
	case status == http.StatusTooManyRequests, errors.As(err, &we) && we.Code == wire.CodeAdmission:
		f.refused.Add(1)
	default:
		f.errs.Add(1)
	}
}

// sample is one served answer kept for the row-digest oracle.
type sample struct {
	src  string
	rows []view.Row
}

// itemTable tabulates the reference engine's full Item extent so every
// ad-hoc answer's row count can be checked without re-running it.
type itemTable struct {
	byISBN map[string]int
	prices []float64 // sorted
}

func newItemTable(ref reference) (itemTable, error) {
	rows, err := ref.rows("select isbn, shopprice from Item")
	if err != nil {
		return itemTable{}, err
	}
	t := itemTable{byISBN: map[string]int{}}
	for _, r := range rows {
		if s, ok := r["isbn"].(object.Str); ok {
			t.byISBN[string(s)]++
		}
		if p, ok := r["shopprice"].(object.Real); ok {
			t.prices = append(t.prices, float64(p))
		}
	}
	sort.Float64s(t.prices)
	return t, nil
}

// count returns the reference row count of an ad-hoc query text.
func (t itemTable) count(q string) (int, error) {
	if _, key, ok := strings.Cut(q, "isbn = '"); ok {
		return t.byISBN[strings.TrimSuffix(key, "'")], nil
	}
	lo, hi, err := rangeOf(q)
	if err != nil {
		return 0, err
	}
	i := sort.Search(len(t.prices), func(i int) bool { return t.prices[i] >= lo })
	j := sort.Search(len(t.prices), func(i int) bool { return t.prices[i] >= hi })
	return j - i, nil
}

// loop runs op in a closed loop until the deadline, recording the
// latency of every completed call.
func loop(deadline time.Time, op func(i int) (ok bool)) *series {
	s := newSeries()
	for i := 0; time.Now().Before(deadline); i++ {
		t0 := time.Now()
		if op(i) {
			s.add(time.Since(t0))
		}
	}
	s.stop()
	return s
}

// latencyMetrics reports one operation class under a metric prefix.
func latencyMetrics(out *outcome, prefix, what string, s *series) {
	sum := s.summary()
	out.metrics[prefix+"_p50_ms"] = metric{sum.P50, "ms"}
	out.metrics[prefix+"_tail_ms"] = metric{sum.Tail, "ms"}
	out.metrics[prefix+"_per_s"] = metric{sum.PerS, "1/s"}
	out.detail[prefix] = map[string]any{"op": what, "summary": sum}
}

func setupMetrics(out *outcome, setups []float64) {
	out.detail["setup_runs_s"] = append([]float64(nil), setups...)
	out.metrics["setup_s"] = metric{median(setups), "s"}
}

func runServeRead(cfg config) (*outcome, error) {
	out := newOutcome()
	load := servedLoad(cfg.seed)

	twin, err := servedTwin(load)
	if err != nil {
		return nil, err
	}
	ref := newReference(twin)
	hot := hotQueries(cfg.seed, load)
	hotRef := make([]answer, len(hot))
	for i, q := range hot {
		if hotRef[i], err = ref.answer(q); err != nil {
			return nil, err
		}
	}
	table, err := newItemTable(ref)
	if err != nil {
		return nil, err
	}
	out.env["objects"] = len(twin.Result().View.Objects)
	out.env["member_objects"] = memberCounts(twin)
	out.env["adhoc_key_space"] = keySpace
	out.env["adhoc_range_steps"] = rangeSteps
	out.env["wal_sync"] = "none (ephemeral tenant)"

	d, setups, err := setUpServed(cfg, load, false)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	setupMetrics(out, setups)

	ctx := context.Background()
	wc, err := wire.Dial(d.wireAddr)
	if err != nil {
		return nil, err
	}
	defer wc.Close()
	prepared := make([]*wire.Prepared, len(hot))
	shapes := make([]map[string]any, len(hot))
	for i, q := range hot {
		if prepared[i], err = wc.Prepare(ctx, tenant, q); err != nil {
			return nil, fmt.Errorf("prepare %q: %w", q, err)
		}
		rows, st, err := prepared[i].Exec(ctx)
		if err != nil {
			return nil, fmt.Errorf("warm %q: %w", q, err)
		}
		if got := digestRows(rows); got != hotRef[i] {
			out.wrong("prepared %q: served %+v, reference %+v", q, got, hotRef[i])
		}
		shapes[i] = map[string]any{"q": q, "rows": len(rows), "pruned_empty": st.PrunedEmpty,
			"dropped_conjuncts": st.DroppedConjuncts, "index_hits": st.IndexHits, "candidates": st.CandidateRows}
	}
	out.detail["hot_set"] = shapes
	hc := newHTTPClient(d.httpAddr)
	defer hc.close()
	hits0, misses0, solver0, err := hc.planCounters()
	if err != nil {
		return nil, err
	}

	// The connections take turns, each with the host to itself for
	// half the window: on two cores a concurrent pair makes either's
	// latency depend on how the scheduler interleaves them.
	half := time.Duration(cfg.seconds) * time.Second / 2
	var samplesA, samplesB []sample
	seriesA := loop(time.Now().Add(half), func(i int) bool { // A: prepared hot set, binary transport
		out.attempted++
		k := i % len(prepared)
		rows, _, err := prepared[k].Exec(ctx)
		if err != nil {
			classify(&out.fail, err, 0)
			return false
		}
		if len(rows) != hotRef[k].Rows {
			out.fail.wrongAnswer.Add(1)
			out.wrong("prepared %q: %d rows, reference %d", hot[k], len(rows), hotRef[k].Rows)
		}
		if i%sampleEvery == 0 && len(samplesA) < maxSamples {
			samplesA = append(samplesA, sample{hot[k], rows})
		}
		return true
	})
	rng := rand.New(rand.NewSource(cfg.seed ^ 0xadc))
	seriesB := loop(time.Now().Add(half), func(i int) bool { // B: ad-hoc query text, HTTP/JSON
		out.attempted++
		q := adhocQuery(rng)
		rows, status, err := hc.query(q)
		if err != nil {
			classify(&out.fail, err, status)
			return false
		}
		want, err := table.count(q)
		if err != nil || len(rows) != want {
			out.fail.wrongAnswer.Add(1)
			out.wrong("ad-hoc %q: %d rows, reference %d (%v)", q, len(rows), want, err)
		}
		if i%sampleEvery == 0 && len(samplesB) < maxSamples {
			samplesB = append(samplesB, sample{q, rows})
		}
		return true
	})

	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	hits1, misses1, solver1, err := hc.planCounters()
	if err != nil {
		return nil, err
	}
	d.stop()

	for _, s := range append(samplesA, samplesB...) {
		want, err := ref.answer(s.src)
		if err != nil {
			return nil, err
		}
		if got := digestRows(s.rows); got != want {
			out.fail.wrongAnswer.Add(1)
			out.wrong("sampled %q: served %+v, reference %+v", s.src, got, want)
		}
	}
	latencyMetrics(out, "main", "prepared query, binary transport", seriesA)
	latencyMetrics(out, "second", "ad-hoc query, HTTP/JSON", seriesB)
	out.metrics["peak_rss_mb"] = metric{rss, "MB"}
	out.detail["digest_samples"] = len(samplesA) + len(samplesB)
	out.detail["server_plan_hits"] = hits1 - hits0
	out.detail["server_plan_misses"] = misses1 - misses0
	out.detail["server_solver_queries"] = solver1 - solver0
	return out, nil
}

// memberCounts reports each member's object count.
func memberCounts(fed *interopdb.Federation) map[string]int {
	out := map[string]int{}
	for _, name := range fed.Members() {
		if m, ok := fed.Member(name); ok {
			out[name] = m.Store.Count()
		}
	}
	return out
}

// writeState is what connection A of serve_write has sent and had
// acknowledged, shared with connection B's visibility oracle.
type writeState struct {
	mu    sync.RWMutex
	valid []writeTx // valid transactions in send order
	// inRange[p] counts, among the first p valid transactions, the
	// inserts whose price falls in read 0's range.
	inRange []int
	sent    atomic.Int64
	acked   atomic.Int64
}

func runServeWrite(cfg config) (*outcome, error) {
	out := newOutcome()
	load := servedLoad(cfg.seed)

	twin, err := servedTwin(load)
	if err != nil {
		return nil, err
	}
	vid, err := vldbID(twin)
	if err != nil {
		return nil, err
	}
	ref := newReference(twin)
	reads := writeReads(cfg.seed, load)
	base := make([]answer, len(reads))
	for i, q := range reads {
		if base[i], err = ref.answer(q); err != nil {
			return nil, err
		}
	}
	lo, hi, err := rangeOf(reads[0])
	if err != nil {
		return nil, err
	}
	out.env["objects"] = len(twin.Result().View.Objects)
	out.env["wal_sync"] = "SyncAlways"
	out.env["checkpoint_interval"] = checkpointEvery.String()
	out.env["planted_share"] = "1 in 10"

	d, setups, err := setUpServed(cfg, load, true)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	setupMetrics(out, setups)

	ctx := context.Background()
	writer, err := wire.Dial(d.wireAddr)
	if err != nil {
		return nil, err
	}
	defer writer.Close()
	reader, err := wire.Dial(d.wireAddr)
	if err != nil {
		return nil, err
	}
	defer reader.Close()
	prepared := make([]*wire.Prepared, len(reads))
	for i, q := range reads {
		if prepared[i], err = reader.Prepare(ctx, tenant, q); err != nil {
			return nil, fmt.Errorf("prepare %q: %w", q, err)
		}
		rows, _, err := prepared[i].Exec(ctx)
		if err != nil {
			return nil, fmt.Errorf("warm %q: %w", q, err)
		}
		if got := digestRows(rows); got != base[i] {
			out.wrong("read %q before writes: served %+v, reference %+v", q, got, base[i])
		}
	}

	ws := &writeState{inRange: []int{0}}
	// expect reports whether a read's answer matches the reference
	// state after some acknowledged prefix p in [a0, a1].
	expect := func(k int, rows []view.Row, a0, a1 int64) bool {
		ws.mu.RLock()
		defer ws.mu.RUnlock()
		for p := a0; p <= a1 && int(p) < len(ws.inRange); p++ {
			switch k {
			case 0:
				if len(rows) == base[0].Rows+ws.inRange[p] {
					return true
				}
			case 1:
				want := vldbTitle
				if p > 0 {
					want = ws.valid[p-1].title
				}
				if len(rows) == 1 && rows[0]["title"].Equal(object.Str(want)) {
					return true
				}
			default:
				return len(rows) == base[k].Rows
			}
		}
		return false
	}

	var attempted atomic.Int64
	commits, rejects := newSeries(), newSeries()
	var readSeries *series
	var planted int
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // connection A: cross-member transactions, some planted
		defer wg.Done()
		rng := rand.New(rand.NewSource(cfg.seed ^ 0x3717e))
		for i := 0; time.Now().Before(deadline); i++ {
			tx := genWriteTx(rng, i, vid)
			if !tx.planted {
				ws.mu.Lock()
				n := ws.inRange[len(ws.inRange)-1]
				if tx.shop >= lo && tx.shop < hi {
					n++
				}
				ws.valid = append(ws.valid, tx)
				ws.inRange = append(ws.inRange, n)
				ws.mu.Unlock()
				ws.sent.Add(1)
			}
			attempted.Add(1)
			t0 := time.Now()
			_, _, err := writer.Tx(ctx, tenant, tx.ops, false)
			lat := time.Since(t0)
			var we *wire.Error
			rejected := errors.As(err, &we) && we.Code == wire.CodeRejected
			switch {
			case tx.planted:
				planted++
				switch {
				case err == nil:
					out.fail.plantedCommitted.Add(1)
					out.wrong("planted transaction %d committed", i)
				case !rejected:
					classify(&out.fail, err, 0)
				case !namesOC1(we):
					out.fail.wrongAnswer.Add(1)
					out.wrong("planted transaction %d rejected without naming Proceedings.oc1: %v", i, we.Rejections)
				default:
					rejects.add(lat)
				}
			case err == nil:
				commits.add(lat)
				ws.acked.Add(1)
			case rejected:
				out.fail.validRejected.Add(1)
				out.wrong("valid transaction %d rejected: %v", i, err)
			default:
				classify(&out.fail, err, 0)
			}
		}
		commits.stop()
		rejects.stop()
	}()
	go func() { // connection B: prepared reads on the written classes
		defer wg.Done()
		readSeries = loop(deadline, func(i int) bool {
			attempted.Add(1)
			k := i % len(prepared)
			a0 := ws.acked.Load()
			rows, _, err := prepared[k].Exec(ctx)
			a1 := ws.sent.Load()
			if err != nil {
				classify(&out.fail, err, 0)
				return false
			}
			if !expect(k, rows, a0, a1) {
				out.fail.wrongAnswer.Add(1)
				out.wrong("read %q after %d..%d commits: %d rows", reads[k], a0, a1, len(rows))
			}
			return true
		})
	}()
	wg.Wait()

	// Final state, with the writer stopped.
	final := make([]answer, len(reads))
	for i, p := range prepared {
		rows, _, err := p.Exec(ctx)
		if err != nil {
			return nil, fmt.Errorf("final read %q: %w", reads[i], err)
		}
		final[i] = digestRows(rows)
	}
	hc := newHTTPClient(d.httpAddr)
	defer hc.close()
	isbnRows, _, err := hc.query("select isbn from Item")
	if err != nil {
		return nil, fmt.Errorf("final extent: %w", err)
	}
	var health struct {
		JournalDepth int `json:"journal_depth"`
	}
	if err := hc.getJSON("/v1/"+tenant+"/health", &health); err != nil {
		return nil, err
	}
	if health.JournalDepth != 0 {
		out.wrong("health reports %d unresolved journal entries", health.JournalDepth)
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	d.stop()

	// Every acknowledged insert is visible, no planted one is, and the
	// served state equals the reference engine's after the same
	// acknowledged transactions.
	served := map[string]bool{}
	for _, r := range isbnRows {
		if s, ok := r["isbn"].(object.Str); ok {
			served[string(s)] = true
		}
	}
	acked := ws.valid[:ws.acked.Load()]
	for _, tx := range acked {
		if !served[tx.isbn] {
			out.wrong("acknowledged insert %s not visible", tx.isbn)
		}
	}
	for isbn := range served {
		if strings.HasPrefix(isbn, "p-") || strings.HasPrefix(isbn, "q-") {
			out.wrong("planted insert %s visible", isbn)
		}
	}
	if err := replay(ref, acked); err != nil {
		return nil, err
	}
	for i, q := range reads {
		want, err := ref.answer(q)
		if err != nil {
			return nil, err
		}
		if final[i] != want {
			out.wrong("final %q: served %+v, reference %+v", q, final[i], want)
		}
	}
	if want := base[0].Rows + ws.inRange[len(acked)]; final[0].Rows != want {
		out.wrong("final %q: %d rows, the acknowledged prefix predicts %d", reads[0], final[0].Rows, want)
	}
	refISBN, err := ref.answer("select isbn from Item")
	if err != nil {
		return nil, err
	}
	if got := digestRows(isbnRows); got != refISBN {
		out.wrong("final Item extent: served %+v, reference %+v", got, refISBN)
	}

	out.attempted = attempted.Load()
	latencyMetrics(out, "main", "acknowledged durable commit, binary transport", commits)
	latencyMetrics(out, "second", "prepared read during writes, binary transport", readSeries)
	out.metrics["peak_rss_mb"] = metric{rss, "MB"}
	rs := rejects.summary()
	out.detail["reject"] = map[string]any{"op": "planted violation rejected before shipping", "summary": rs}
	out.detail["reject_p50_ms"] = rs.P50
	out.detail["commits_acknowledged"] = len(commits.lat)
	out.detail["planted"] = planted
	out.env["objects_after"] = len(twin.Result().View.Objects)
	return out, nil
}

// namesOC1 reports whether a rejection names the objective
// Proceedings.oc1 constraint.
func namesOC1(we *wire.Error) bool {
	for _, r := range we.Rejections {
		if r.Constraint == proceedingsOC1 {
			for _, c := range r.Classes {
				if c == "Proceedings" {
					return true
				}
			}
		}
	}
	return false
}

// rangeOf parses the price range of a read of the form
// "... shopprice >= lo and shopprice < hi".
func rangeOf(q string) (lo, hi float64, err error) {
	_, rest, _ := strings.Cut(q, "shopprice >= ")
	los, his, ok := strings.Cut(rest, " and shopprice < ")
	if !ok {
		return 0, 0, fmt.Errorf("no price range in %q", q)
	}
	if lo, err = strconv.ParseFloat(los, 64); err != nil {
		return 0, 0, err
	}
	hi, err = strconv.ParseFloat(his, 64)
	return lo, hi, err
}

// replay ships acknowledged transactions into the reference engine in
// order, several per batch.
func replay(ref reference, txs []writeTx) error {
	const perBatch = 50
	for len(txs) > 0 {
		n := min(perBatch, len(txs))
		var ops []view.Mutation
		for _, tx := range txs[:n] {
			ops = append(ops, tx.ops...)
		}
		if err := ref.e.Ship(context.Background(), ops); err != nil {
			return fmt.Errorf("reference replay: %w", err)
		}
		txs = txs[n:]
	}
	return nil
}

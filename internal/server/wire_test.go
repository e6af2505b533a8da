package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"interopdb/internal/view"
	"interopdb/internal/wire"
)

// wireTestServer boots the shared test server plus its binary listener
// and returns a connected wire client alongside the HTTP test server.
func wireTestServer(t *testing.T) (*Server, string, *wire.Client) {
	t.Helper()
	srv, ts := testServer(t)
	ws := srv.WireServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ws.Serve(ln)
	t.Cleanup(func() { ws.Close() })
	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, ts.URL, c
}

// canonRow renders a row through the HTTP codec's tagged form and
// canonical JSON (sorted keys), the byte-identity yardstick all three
// paths are compared in.
func canonRow(t *testing.T, r view.Row) string {
	t.Helper()
	b, err := json.Marshal(EncodeRow(r))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func canonWireRow(t *testing.T, r map[string]WireValue) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWireDifferentialQuery pins binary-transport query results
// byte-identical (through canonical tagged-JSON rendering) to the HTTP
// path and to an in-process engine on an identical federation.
func TestWireDifferentialQuery(t *testing.T) {
	_, baseURL, c := wireTestServer(t)
	e := figure1Engine(t)
	ctx := context.Background()
	for _, src := range []string{
		"select title from Item where shopprice < 50",
		"select title, rating from Proceedings where rating >= 7 and shopprice < 75",
		"select title from Item where shopprice <= 20", // pruned empty
		"select title from Proceedings where rating in {5, 8}",
		"select isbn from Item",
	} {
		binRows, binStats, err := c.Query(ctx, "figure1", src)
		if err != nil {
			t.Fatalf("%q binary: %v", src, err)
		}

		code, body := postJSON(t, baseURL+"/v1/figure1/query", queryRequest{Q: src})
		if code != http.StatusOK {
			t.Fatalf("%q http: status %d body %s", src, code, body)
		}
		var httpResp queryResponse
		if err := json.Unmarshal(body, &httpResp); err != nil {
			t.Fatal(err)
		}

		q, err := view.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		inRows, inStats, err := e.Run(q)
		if err != nil {
			t.Fatalf("%q in-process: %v", src, err)
		}

		if len(binRows) != len(inRows) || len(httpResp.Rows) != len(inRows) {
			t.Fatalf("%q: row counts binary=%d http=%d inproc=%d", src, len(binRows), len(httpResp.Rows), len(inRows))
		}
		for i := range inRows {
			want := canonRow(t, inRows[i])
			if got := canonRow(t, binRows[i]); got != want {
				t.Errorf("%q row %d: binary %s != inproc %s", src, i, got, want)
			}
			if got := canonWireRow(t, httpResp.Rows[i]); got != want {
				t.Errorf("%q row %d: http %s != inproc %s", src, i, got, want)
			}
		}
		if binStats.PrunedEmpty != inStats.PrunedEmpty || binStats.PrunedEmpty != httpResp.Stats.PrunedEmpty {
			t.Errorf("%q: pruned_empty binary=%v http=%v inproc=%v", src, binStats.PrunedEmpty, httpResp.Stats.PrunedEmpty, inStats.PrunedEmpty)
		}
	}
}

// TestWireDifferentialTx applies identical inserts through each
// transport and pins identical responses and identical post-state.
func TestWireDifferentialTx(t *testing.T) {
	_, baseURL, c := wireTestServer(t)
	ctx := context.Background()

	// Validate-only on the same tenant: responses must agree exactly.
	ops := []view.Mutation{decodeWireInsert(t, wireInsert("difftx-1", 30))}
	binApplied, binVS, err := c.Tx(ctx, "figure1", ops, true)
	if err != nil {
		t.Fatalf("binary validate: %v", err)
	}
	code, body := postJSON(t, baseURL+"/v1/figure1/tx", wireTxRequest{
		Ops: []WireMutation{wireInsert("difftx-1", 30)}, ValidateOnly: true,
	})
	if code != http.StatusOK {
		t.Fatalf("http validate: status %d body %s", code, body)
	}
	var httpResp txResponse
	if err := json.Unmarshal(body, &httpResp); err != nil {
		t.Fatal(err)
	}
	if binApplied != httpResp.Applied {
		t.Errorf("applied: binary %d, http %d", binApplied, httpResp.Applied)
	}
	if EncodeValidateStats(binVS) != httpResp.ValidateStats {
		t.Errorf("validate stats: binary %+v, http %+v", EncodeValidateStats(binVS), httpResp.ValidateStats)
	}

	// Applied through the binary transport, visible through HTTP — one
	// engine behind both fronts.
	if _, _, err := c.Tx(ctx, "figure1", ops, false); err != nil {
		t.Fatalf("binary apply: %v", err)
	}
	q := "select title from Item where isbn = 'difftx-1'"
	binRows, _, err := c.Query(ctx, "figure1", q)
	if err != nil || len(binRows) != 1 {
		t.Fatalf("binary query after apply: %v rows %d", err, len(binRows))
	}
	code, body = postJSON(t, baseURL+"/v1/figure1/query", queryRequest{Q: q})
	if code != http.StatusOK {
		t.Fatalf("http query after apply: %d %s", code, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 1 || canonWireRow(t, qr.Rows[0]) != canonRow(t, binRows[0]) {
		t.Errorf("post-apply row differs: http %v, binary %v", qr.Rows, binRows)
	}

	// Rejections must carry the same constraint and detail on both
	// transports ('vldb96' is a fixture isbn: duplicate key).
	dup := []view.Mutation{decodeWireInsert(t, wireInsert("vldb96", 30))}
	_, _, err = c.Tx(ctx, "figure1", dup, false)
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeRejected || len(we.Rejections) == 0 {
		t.Fatalf("binary duplicate key: %v", err)
	}
	code, body = postJSON(t, baseURL+"/v1/figure1/tx", wireTxRequest{Ops: []WireMutation{wireInsert("vldb96", 30)}})
	if code != http.StatusConflict {
		t.Fatalf("http duplicate key: status %d", code)
	}
	var rejResp struct {
		Rejections []WireRejection `json:"rejections"`
	}
	if err := json.Unmarshal(body, &rejResp); err != nil || len(rejResp.Rejections) == 0 {
		t.Fatalf("http rejections: %v %s", err, body)
	}
	if we.Rejections[0].Constraint != rejResp.Rejections[0].Constraint ||
		we.Rejections[0].Detail != rejResp.Rejections[0].Detail {
		t.Errorf("rejection differs:\n binary %+v\n http   %+v", we.Rejections[0], rejResp.Rejections[0])
	}
}

// decodeWireInsert converts the HTTP test fixture's WireMutation into
// the engine form the binary client sends.
func decodeWireInsert(t *testing.T, m WireMutation) view.Mutation {
	t.Helper()
	ops, err := DecodeMutations([]WireMutation{m})
	if err != nil {
		t.Fatal(err)
	}
	return ops[0]
}

// prepareCount reads the wire_prepare endpoint counter — each server-
// side (re-)prepare records exactly one hit.
func prepareCount(s *Server) int64 {
	m := s.metrics.endpoint("wire_prepare")
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.count
}

// TestPreparedSurvivesRepublication pins the first leg of the prepared
// lifecycle: shipping a write republishes the snapshot, and the handle
// keeps executing — same handle, no re-prepare — now seeing the new
// data through the republished snapshot's plan cache.
func TestPreparedSurvivesRepublication(t *testing.T) {
	srv, _, c := wireTestServer(t)
	ctx := context.Background()

	p, err := c.Prepare(ctx, "figure1", "select title from Item where isbn = 'republish-1'")
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := p.Exec(ctx)
	if err != nil || len(rows) != 0 {
		t.Fatalf("exec before insert: %v rows %d", err, len(rows))
	}
	prepBefore := prepareCount(srv)

	ops := []view.Mutation{decodeWireInsert(t, wireInsert("republish-1", 30))}
	if _, _, err := c.Tx(ctx, "figure1", ops, false); err != nil {
		t.Fatalf("tx: %v", err)
	}

	rows, _, err = p.Exec(ctx)
	if err != nil {
		t.Fatalf("exec after republication: %v", err)
	}
	if len(rows) != 1 {
		t.Fatalf("exec after insert: %d rows, want 1 (stale snapshot?)", len(rows))
	}
	if got := prepareCount(srv); got != prepBefore {
		t.Errorf("republication triggered a re-prepare (%d -> %d); handles must survive data writes", prepBefore, got)
	}
	// The write rebuilt Item's snapshot slot (fresh plan cache), so the
	// exec above replanned; from here on the handle hits the cache again.
	if _, stats, err := p.Exec(ctx); err != nil || !stats.PlanCached {
		t.Errorf("plan cache did not rewarm after republication: err=%v cached=%v", err, stats.PlanCached)
	}
}

// TestPreparedReprepareAcrossAttachDetach pins the invalidation leg:
// attach/detach moves the tenant's member version, the next Exec
// re-prepares transparently (observable in the wire_prepare counter),
// and execution keeps working across both membership changes.
func TestPreparedReprepareAcrossAttachDetach(t *testing.T) {
	srv, baseURL, c := wireTestServer(t)
	ctx := context.Background()

	p, err := c.Prepare(ctx, "figure1", "select title from Item where shopprice < 50")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Exec(ctx); err != nil {
		t.Fatal(err)
	}
	prepBefore := prepareCount(srv)

	code, body := postJSON(t, baseURL+"/v1/figure1/attach", attachRequest{FixtureMember: "univarchive"})
	if code != http.StatusOK {
		t.Fatalf("attach: status %d body %s", code, body)
	}
	rows, _, err := p.Exec(ctx)
	if err != nil {
		t.Fatalf("exec after attach: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("exec after attach returned no rows")
	}
	if got := prepareCount(srv); got != prepBefore+1 {
		t.Errorf("prepares after attach: %d, want %d (transparent re-prepare)", got, prepBefore+1)
	}

	archive := "UnivArchive"
	code, body = postJSON(t, baseURL+"/v1/figure1/detach", detachRequest{Member: archive})
	if code != http.StatusOK {
		t.Fatalf("detach: status %d body %s", code, body)
	}
	if _, _, err := p.Exec(ctx); err != nil {
		t.Fatalf("exec after detach: %v", err)
	}
	if got := prepareCount(srv); got != prepBefore+2 {
		t.Errorf("prepares after detach: %d, want %d", got, prepBefore+2)
	}

	// Stable membership again: no further re-prepares.
	if _, _, err := p.Exec(ctx); err != nil {
		t.Fatal(err)
	}
	if got := prepareCount(srv); got != prepBefore+2 {
		t.Errorf("stable exec re-prepared: %d, want %d", prepareCount(srv), prepBefore+2)
	}
}

// cancelFirstExec wraps the real wire backend so that its first Exec
// reports that it arrived, blocks until the client's cancel reaches the
// server, and only then runs the real Exec — whose plan build thus
// starts under a cancelled context — reporting that Exec's error on
// done.
type cancelFirstExec struct {
	wireBackend
	first   atomic.Bool
	entered chan struct{}
	done    chan error
}

func (b *cancelFirstExec) Exec(ctx context.Context, tenant string, q view.Query) ([]view.Row, view.Stats, error) {
	if !b.first.CompareAndSwap(false, true) {
		return b.wireBackend.Exec(ctx, tenant, q)
	}
	close(b.entered)
	select {
	case <-ctx.Done():
	case <-time.After(10 * time.Second):
		b.done <- errors.New("the client's cancel never reached the server")
		return nil, view.Stats{}, ctx.Err()
	}
	rows, stats, err := b.wireBackend.Exec(ctx, tenant, q)
	b.done <- err
	return rows, stats, err
}

// TestCancelledPreparedExecDoesNotPoisonPlanCache extends the
// ctx_test.go pattern across the wire: a prepared execution cancelled
// mid-flight must not leave a poisoned (partial) plan in the snapshot
// plan cache — the next execution plans cleanly and later ones hit the
// cache.
func TestCancelledPreparedExecDoesNotPoisonPlanCache(t *testing.T) {
	srv, _ := testServer(t)
	hook := &cancelFirstExec{wireBackend: wireBackend{srv}, entered: make(chan struct{}), done: make(chan error, 1)}
	ws := wire.NewServer(wire.ServerConfig{Backend: hook})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ws.Serve(ln)
	t.Cleanup(func() { ws.Close() })
	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ctx := context.Background()

	// A fresh fingerprint this test owns, so the first exec must build
	// its plan rather than reuse another test's.
	src := "select title from Item where shopprice < 49 and rating >= 0"
	p, err := c.Prepare(ctx, "figure1", src)
	if err != nil {
		t.Fatal(err)
	}

	cancelled, cancel := context.WithCancel(ctx)
	errc := make(chan error, 1)
	go func() {
		_, _, err := p.Exec(cancelled)
		errc <- err
	}()
	<-hook.entered
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("exec cancelled in flight: %v, want context.Canceled", err)
	}
	// The server-side build ran under the cancelled context and failed.
	if err := <-hook.done; !errors.Is(err, context.Canceled) {
		t.Fatalf("server-side exec after cancel: %v, want context.Canceled", err)
	}

	// The cancelled build must not have cached anything poisoned: the
	// next exec plans afresh and its successor reports a plan-cache hit.
	if _, stats, err := p.Exec(ctx); err != nil || stats.PlanCached {
		t.Fatalf("exec after cancelled exec: err=%v cached=%v, want a fresh plan", err, stats.PlanCached)
	}
	if _, stats, err := p.Exec(ctx); err != nil || !stats.PlanCached {
		t.Fatalf("follow-up exec: err=%v cached=%v, want a plan-cache hit", err, stats.PlanCached)
	}
}

// TestWireUnknownTenant pins tenant resolution on the binary path.
func TestWireUnknownTenant(t *testing.T) {
	_, _, c := wireTestServer(t)
	_, _, err := c.Query(context.Background(), "nope", "select title from Item")
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeUnknownTenant {
		t.Fatalf("unknown tenant: %v, want CodeUnknownTenant", err)
	}
	_, _, err = c.Query(context.Background(), "figure1", "select title from Nope")
	if !errors.As(err, &we) || we.Code != wire.CodeNotFound {
		t.Fatalf("unknown class: %v, want CodeNotFound", err)
	}
}

// TestWireDraining pins the drain contract on the binary path.
func TestWireDraining(t *testing.T) {
	srv, _, c := wireTestServer(t)
	srv.Drain()
	_, _, err := c.Query(context.Background(), "figure1", "select title from Item")
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeDraining {
		t.Fatalf("draining query: %v, want CodeDraining", err)
	}
}

// BenchmarkWireExec measures the binary transport's prepared-query
// round trip end to end (loopback TCP, real listener) — the number the
// B11 overhead target keys on.
func BenchmarkWireExec(b *testing.B) {
	b.ReportAllocs()
	srv := New(Config{})
	if err := srv.AddTenant("figure1", "figure1"); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ws := srv.WireServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go ws.Serve(ln)
	defer ws.Close()
	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	p, err := c.Prepare(ctx, "figure1", "select title from Item where shopprice < 50")
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := p.Exec(ctx); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Exec(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHTTPQuery is the same round trip through the HTTP/JSON
// transport, for the in-repo comparison.
func BenchmarkHTTPQuery(b *testing.B) {
	b.ReportAllocs()
	baseURL, _, shutdown, err := StartLocal(map[string]string{"figure1": "figure1"})
	if err != nil {
		b.Fatal(err)
	}
	defer shutdown()
	client := &http.Client{}
	post := func() error {
		body, _ := json.Marshal(queryRequest{Q: "select title from Item where shopprice < 50"})
		resp, err := client.Post(baseURL+"/v1/figure1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	if err := post(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := post(); err != nil {
			b.Fatal(err)
		}
	}
}

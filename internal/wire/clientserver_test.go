package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"interopdb/internal/object"
	"interopdb/internal/view"
)

// fakeBackend is a scriptable Backend for transport-level tests; the
// real binding (internal/server's wireBackend) has its own differential
// tests against the HTTP path.
type fakeBackend struct {
	mu        sync.Mutex
	ver       uint64
	prepares  atomic.Int64
	execs     atomic.Int64
	queryHook func(ctx context.Context, tenant, src string) ([]view.Row, view.Stats, error)
}

func (f *fakeBackend) rows(src string) []view.Row {
	return []view.Row{{"src": object.Str(src), "n": object.Int(1)}}
}

func (f *fakeBackend) Query(ctx context.Context, tenant, src string) ([]view.Row, view.Stats, error) {
	if f.queryHook != nil {
		return f.queryHook(ctx, tenant, src)
	}
	return f.rows(src), view.Stats{Scanned: 1}, nil
}

func (f *fakeBackend) Prepare(ctx context.Context, tenant, src string) (view.Query, error) {
	f.prepares.Add(1)
	if src == "bad" {
		return view.Query{}, &Error{Code: CodeBadRequest, Msg: "parsing query: bad"}
	}
	return view.Query{Class: src}, nil
}

func (f *fakeBackend) Exec(ctx context.Context, tenant string, q view.Query) ([]view.Row, view.Stats, error) {
	f.execs.Add(1)
	return f.rows(q.Class), view.Stats{PlanCached: true}, nil
}

func (f *fakeBackend) Tx(ctx context.Context, tenant string, ops []view.Mutation, validateOnly bool) (int, view.ValidateStats, error) {
	if validateOnly {
		return 0, view.ValidateStats{ConstraintsChecked: 1}, nil
	}
	return len(ops), view.ValidateStats{ConstraintsChecked: 1}, nil
}

func (f *fakeBackend) MemberVersion(tenant string) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ver
}

func (f *fakeBackend) bumpVersion() {
	f.mu.Lock()
	f.ver++
	f.mu.Unlock()
}

// startWire boots a Server on a loopback listener and returns a
// connected client.
func startWire(t *testing.T, b Backend, cfg ServerConfig) *Client {
	t.Helper()
	cfg.Backend = b
	srv := NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClientServerRoundTrip(t *testing.T) {
	fb := &fakeBackend{}
	c := startWire(t, fb, ServerConfig{})
	ctx := context.Background()

	rows, stats, err := c.Query(ctx, "main", "hello")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(rows) != 1 || !rows[0]["src"].Equal(object.Str("hello")) || stats.Scanned != 1 {
		t.Fatalf("query round trip: %v %+v", rows, stats)
	}

	applied, vs, err := c.Tx(ctx, "main", []view.Mutation{
		{Kind: view.MutInsert, Class: "Item", ID: 1, Attrs: map[string]object.Value{"title": object.Str("x")}},
	}, false)
	if err != nil || applied != 1 || vs.ConstraintsChecked != 1 {
		t.Fatalf("tx round trip: %d %+v %v", applied, vs, err)
	}

	p, err := c.Prepare(ctx, "main", "Item")
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	rows, stats, err = p.Exec(ctx)
	if err != nil || !stats.PlanCached || !rows[0]["src"].Equal(object.Str("Item")) {
		t.Fatalf("exec: %v %+v", err, stats)
	}
	if got := fb.prepares.Load(); got != 1 {
		t.Fatalf("prepares = %d, want 1", got)
	}
}

// TestPipelining proves responses are matched by request ID, not
// arrival order: a slow query issued first must not block a fast one
// issued second on the same connection.
func TestPipelining(t *testing.T) {
	release := make(chan struct{})
	fastDone := make(chan struct{})
	fb := &fakeBackend{}
	fb.queryHook = func(ctx context.Context, tenant, src string) ([]view.Row, view.Stats, error) {
		if src == "slow" {
			select {
			case <-release:
			case <-time.After(10 * time.Second):
				return nil, view.Stats{}, fmt.Errorf("pipelining stalled")
			}
		}
		return fb.rows(src), view.Stats{}, nil
	}
	c := startWire(t, fb, ServerConfig{})
	ctx := context.Background()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, _, err := c.Query(ctx, "main", "slow"); err != nil {
			t.Errorf("slow query: %v", err)
		}
	}()
	go func() {
		defer wg.Done()
		if _, _, err := c.Query(ctx, "main", "fast"); err != nil {
			t.Errorf("fast query: %v", err)
		}
		close(fastDone)
	}()
	select {
	case <-fastDone:
		// The fast response overtook the still-blocked slow request.
	case <-time.After(5 * time.Second):
		t.Fatal("fast query blocked behind slow one: no pipelining")
	}
	close(release)
	wg.Wait()
}

// TestCancelPropagation proves an OpCancel reaches the server-side
// request context: the backend observes ctx.Done and the client call
// returns ctx.Err without waiting for the response.
func TestCancelPropagation(t *testing.T) {
	sawCancel := make(chan struct{})
	fb := &fakeBackend{}
	fb.queryHook = func(ctx context.Context, tenant, src string) ([]view.Row, view.Stats, error) {
		if src != "blocked" {
			return fb.rows(src), view.Stats{}, nil
		}
		select {
		case <-ctx.Done():
			close(sawCancel)
			return nil, view.Stats{}, ctx.Err()
		case <-time.After(10 * time.Second):
			return nil, view.Stats{}, fmt.Errorf("cancel never arrived")
		}
	}
	c := startWire(t, fb, ServerConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.Query(ctx, "main", "blocked")
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the request reach the backend
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("query after cancel: %v, want context.Canceled", err)
	}
	select {
	case <-sawCancel:
	case <-time.After(5 * time.Second):
		t.Fatal("server-side context never cancelled")
	}
	// The connection must still be usable after an abandoned request.
	if _, _, err := c.Query(context.Background(), "main", "after"); err != nil {
		t.Fatalf("query after cancelled request: %v", err)
	}
}

// TestDoneContextSendsNothing pins the client's early return: a request
// whose context is already done fails with the context's error and never
// reaches the backend, however fast the backend would have answered.
func TestDoneContextSendsNothing(t *testing.T) {
	var queries atomic.Int64
	fb := &fakeBackend{}
	fb.queryHook = func(ctx context.Context, tenant, src string) ([]view.Row, view.Stats, error) {
		queries.Add(1)
		return fb.rows(src), view.Stats{}, nil
	}
	c := startWire(t, fb, ServerConfig{})
	p, err := c.Prepare(context.Background(), "main", "C")
	if err != nil {
		t.Fatal(err)
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 100; i++ {
		if _, _, err := c.Query(done, "main", "fast"); !errors.Is(err, context.Canceled) {
			t.Fatalf("query with done ctx: %v, want context.Canceled", err)
		}
		if _, _, err := p.Exec(done); !errors.Is(err, context.Canceled) {
			t.Fatalf("exec with done ctx: %v, want context.Canceled", err)
		}
	}
	// A live request on the same connection is the barrier: anything
	// sent before it would have been dispatched first.
	if _, _, err := c.Query(context.Background(), "main", "after"); err != nil {
		t.Fatal(err)
	}
	if n, e := queries.Load(), fb.execs.Load(); n != 1 || e != 0 {
		t.Errorf("backend saw %d queries and %d execs, want only the live query", n, e)
	}
}

// TestPreparedReprepareOnMembershipChange pins the invalidation
// contract: moving the backend's member version makes the next Exec
// re-prepare transparently from the saved source.
func TestPreparedReprepareOnMembershipChange(t *testing.T) {
	fb := &fakeBackend{}
	c := startWire(t, fb, ServerConfig{})
	ctx := context.Background()

	p, err := c.Prepare(ctx, "main", "Item")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := p.Exec(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := fb.prepares.Load(); got != 1 {
		t.Fatalf("prepares before membership change = %d, want 1", got)
	}
	fb.bumpVersion()
	if _, _, err := p.Exec(ctx); err != nil {
		t.Fatal(err)
	}
	if got := fb.prepares.Load(); got != 2 {
		t.Fatalf("prepares after membership change = %d, want 2 (transparent re-prepare)", got)
	}
	// Stable again: no further re-prepares.
	if _, _, err := p.Exec(ctx); err != nil {
		t.Fatal(err)
	}
	if got := fb.prepares.Load(); got != 2 {
		t.Fatalf("prepares after stable exec = %d, want 2", got)
	}
}

// TestUnknownHandleRetry pins the client half of the contract: a
// server that lost the handle (CodeUnknownHandle) triggers one
// transparent re-prepare and retry.
func TestUnknownHandleRetry(t *testing.T) {
	fb := &fakeBackend{}
	c := startWire(t, fb, ServerConfig{})
	ctx := context.Background()
	p, err := c.Prepare(ctx, "main", "Item")
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	p.handle = 0xdeadbeef // forge a handle the server never issued
	p.mu.Unlock()
	if _, _, err := p.Exec(ctx); err != nil {
		t.Fatalf("exec with forged handle: %v", err)
	}
	if got := fb.prepares.Load(); got != 2 {
		t.Fatalf("prepares = %d, want 2 (re-prepare after unknown handle)", got)
	}
}

func TestErrorMapping(t *testing.T) {
	fb := &fakeBackend{}
	fb.queryHook = func(ctx context.Context, tenant, src string) ([]view.Row, view.Stats, error) {
		switch src {
		case "noclass":
			return nil, view.Stats{}, fmt.Errorf("class %q: %w", "X", view.ErrUnknownClass)
		case "down":
			return nil, view.Stats{}, view.ErrMemberUnavailable
		case "reject":
			return nil, view.Stats{}, view.Rejections{{Detail: "floor"}}
		default:
			return nil, view.Stats{}, fmt.Errorf("boom")
		}
	}
	c := startWire(t, fb, ServerConfig{})
	ctx := context.Background()
	for src, want := range map[string]byte{
		"noclass": CodeNotFound,
		"down":    CodeUnavailable,
		"reject":  CodeRejected,
		"other":   CodeInternal,
	} {
		_, _, err := c.Query(ctx, "main", src)
		var we *Error
		if !errors.As(err, &we) || we.Code != want {
			t.Errorf("%s: got %v, want code %d", src, err, want)
		}
		if src == "reject" && (len(we.Rejections) != 1 || we.Rejections[0].Detail != "floor") {
			t.Errorf("rejections not carried: %+v", we.Rejections)
		}
	}
}

// TestBadPreamble: a connection that does not open with the magic is
// dropped without crashing the server.
func TestBadPreamble(t *testing.T) {
	fb := &fakeBackend{}
	srv := NewServer(ServerConfig{Backend: fb})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("GET / HTTP/1.1\r\n"))
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server answered a non-wire client")
	}
	conn.Close()

	// A real client still works afterwards.
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Query(context.Background(), "main", "ok"); err != nil {
		t.Fatalf("query after bad peer: %v", err)
	}
}

// TestFrameDeadline: a peer that starts a frame header but never
// finishes the payload is cut off by the per-frame deadline.
func TestFrameDeadline(t *testing.T) {
	fb := &fakeBackend{}
	srv := NewServer(ServerConfig{Backend: fb, FrameTimeout: 100 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte(Magic))
	// Header promising a 100-byte payload that never arrives.
	hdr := []byte{100, 0, 0, 0, 0, 0, 0, 0}
	conn.Write(hdr)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("expected the server to close the slowloris connection")
	}
}

// TestShutdownWaitsForInflight: Shutdown returns only after in-flight
// requests finish, and their responses are delivered.
func TestShutdownWaitsForInflight(t *testing.T) {
	release := make(chan struct{})
	fb := &fakeBackend{}
	fb.queryHook = func(ctx context.Context, tenant, src string) ([]view.Row, view.Stats, error) {
		<-release
		return fb.rows(src), view.Stats{}, nil
	}
	srv := NewServer(ServerConfig{Backend: fb})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	errc := make(chan error, 1)
	go func() {
		_, _, err := c.Query(context.Background(), "main", "inflight")
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	select {
	case <-done:
		t.Fatal("Shutdown returned while a request was in flight")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("in-flight query during shutdown: %v", err)
	}
}

package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"interopdb/internal/view"
)

// Client is one persistent framed connection. It is safe for
// concurrent use: calls from many goroutines pipeline onto the single
// connection, each tagged with a request ID, and a reader goroutine
// matches responses back to their callers however they interleave.
type Client struct {
	conn net.Conn

	wmu sync.Mutex // serialises request frame writes
	bw  *bufio.Writer
	enc []byte // encode buffer, guarded by wmu

	mu      sync.Mutex
	pending map[uint64]chan response
	readErr error
	done    chan struct{} // closed when the reader goroutine exits

	nextID atomic.Uint64
	closed atomic.Bool
}

// response is one matched response frame; body is an owned copy.
type response struct {
	op   byte
	body []byte
}

// Dial connects to a wire server and sends the preamble.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn)
}

// NewClient wraps an established connection (handy for tests running
// over net.Pipe or in-process listeners) and sends the preamble.
func NewClient(conn net.Conn) (*Client, error) {
	if _, err := conn.Write([]byte(Magic)); err != nil {
		conn.Close()
		return nil, err
	}
	c := &Client{
		conn:    conn,
		bw:      bufio.NewWriter(conn),
		pending: make(map[uint64]chan response),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// Close tears down the connection. In-flight calls fail with the
// connection error.
func (c *Client) Close() error {
	c.closed.Store(true)
	return c.conn.Close()
}

// readLoop owns the read side: decode frames, route them to waiting
// callers by request ID. Responses for IDs nobody is waiting on (a
// caller that gave up after cancelling) are discarded.
func (c *Client) readLoop() {
	// Buffered reads collapse the header+payload pair into one kernel
	// read on the common path — on loopback the syscalls are most of the
	// round-trip bill.
	br := bufio.NewReaderSize(c.conn, 64<<10)
	var buf []byte
	for {
		f, err := readFrameInto(br, &buf, nil)
		if err != nil {
			c.mu.Lock()
			if c.readErr == nil {
				if c.closed.Load() {
					c.readErr = net.ErrClosed
				} else {
					c.readErr = fmt.Errorf("wire: connection lost: %w", err)
				}
			}
			for id, ch := range c.pending {
				delete(c.pending, id)
				close(ch)
			}
			c.mu.Unlock()
			close(c.done)
			c.conn.Close()
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[f.ID]
		if ok {
			delete(c.pending, f.ID)
		}
		c.mu.Unlock()
		if ok {
			body := make([]byte, len(f.Body))
			copy(body, f.Body)
			ch <- response{op: f.Op, body: body}
		}
	}
}

// writeFrame encodes and sends one frame under the write lock, reusing
// the client's encode buffer.
func (c *Client) writeFrame(op byte, id uint64, build func([]byte) []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	b := beginFrame(c.enc, op, id)
	b = build(b)
	b = finishFrame(b)
	c.enc = b
	if _, err := c.bw.Write(b); err != nil {
		return err
	}
	return c.bw.Flush()
}

// roundTrip sends one request and waits for its response or ctx
// cancellation. A context already done sends nothing: once the request
// is out, a fast reply and the cancellation race in the select below.
// On cancellation it fires an OpCancel at the server and abandons the
// ID — a late response is discarded by the read loop.
func (c *Client) roundTrip(ctx context.Context, op byte, build func([]byte) []byte) (response, error) {
	if err := ctx.Err(); err != nil {
		return response{}, err
	}
	id := c.nextID.Add(1)
	ch := make(chan response, 1)
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return response{}, err
	}
	c.pending[id] = ch
	c.mu.Unlock()

	if err := c.writeFrame(op, id, build); err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return response{}, err
	}

	select {
	case r, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.readErr
			c.mu.Unlock()
			return response{}, err
		}
		if r.op == OpErr {
			we, derr := decodeErrBody(r.body)
			if derr != nil {
				return response{}, derr
			}
			return response{}, we
		}
		return r, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		// Best-effort: tell the server to stop working on it.
		c.writeFrame(OpCancel, id, func(b []byte) []byte {
			return binary.LittleEndian.AppendUint64(b, id)
		})
		return response{}, ctx.Err()
	}
}

// Query parses and runs q on the server, returning rows and stats.
func (c *Client) Query(ctx context.Context, tenant, q string) ([]view.Row, view.Stats, error) {
	r, err := c.roundTrip(ctx, OpQuery, func(b []byte) []byte {
		return appendQueryReq(b, tenant, q)
	})
	if err != nil {
		return nil, view.Stats{}, err
	}
	if r.op != OpRows {
		return nil, view.Stats{}, fmt.Errorf("wire: unexpected response opcode %d", r.op)
	}
	return decodeRowsBody(r.body)
}

// Tx validates and (unless validateOnly) ships a mutation batch.
func (c *Client) Tx(ctx context.Context, tenant string, ops []view.Mutation, validateOnly bool) (int, view.ValidateStats, error) {
	r, err := c.roundTrip(ctx, OpTx, func(b []byte) []byte {
		return appendTxReq(b, tenant, ops, validateOnly)
	})
	if err != nil {
		return 0, view.ValidateStats{}, err
	}
	if r.op != OpTxOK {
		return 0, view.ValidateStats{}, fmt.Errorf("wire: unexpected response opcode %d", r.op)
	}
	return decodeTxOKBody(r.body)
}

// Prepared is a registered query handle. Exec skips the server-side
// parser; if the server reports the handle unknown (connection-scoped
// state lost, e.g. talking through a reconnect), the client re-prepares
// transparently and retries once.
type Prepared struct {
	c      *Client
	tenant string
	src    string

	mu     sync.Mutex
	handle uint64
}

// Prepare registers q once and returns an executable handle.
func (c *Client) Prepare(ctx context.Context, tenant, q string) (*Prepared, error) {
	h, err := c.prepare(ctx, tenant, q)
	if err != nil {
		return nil, err
	}
	return &Prepared{c: c, tenant: tenant, src: q, handle: h}, nil
}

func (c *Client) prepare(ctx context.Context, tenant, q string) (uint64, error) {
	r, err := c.roundTrip(ctx, OpPrepare, func(b []byte) []byte {
		return appendQueryReq(b, tenant, q)
	})
	if err != nil {
		return 0, err
	}
	if r.op != OpPrepared || len(r.body) < 8 {
		return 0, fmt.Errorf("wire: malformed prepare response")
	}
	return binary.LittleEndian.Uint64(r.body), nil
}

// Exec runs the prepared query.
func (p *Prepared) Exec(ctx context.Context) ([]view.Row, view.Stats, error) {
	p.mu.Lock()
	h := p.handle
	p.mu.Unlock()
	rows, stats, err := p.exec(ctx, h)
	var we *Error
	if errors.As(err, &we) && we.Code == CodeUnknownHandle {
		nh, perr := p.c.prepare(ctx, p.tenant, p.src)
		if perr != nil {
			return nil, view.Stats{}, perr
		}
		p.mu.Lock()
		p.handle = nh
		p.mu.Unlock()
		return p.exec(ctx, nh)
	}
	return rows, stats, err
}

func (p *Prepared) exec(ctx context.Context, handle uint64) ([]view.Row, view.Stats, error) {
	r, err := p.c.roundTrip(ctx, OpExec, func(b []byte) []byte {
		return appendExecReq(b, p.tenant, handle)
	})
	if err != nil {
		return nil, view.Stats{}, err
	}
	if r.op != OpRows {
		return nil, view.Stats{}, fmt.Errorf("wire: unexpected response opcode %d", r.op)
	}
	return decodeRowsBody(r.body)
}

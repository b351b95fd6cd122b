package core

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"soapbinq/internal/bufpool"
	"soapbinq/internal/soap"
)

// Multiplexed TCP: the pooled, pipelined sibling of TCPTransport.
//
// The legacy framed-TCP transport serializes every call on one
// connection: under concurrency, callers queue on the connection mutex
// and the wire sits idle between a request's last byte and its
// response's first. The multiplexed protocol removes both limits:
//
//   - A connection carries many calls at once. Every frame is tagged
//     with a u64 correlation ID; a per-connection reader goroutine
//     dispatches responses to their waiting callers, so requests
//     pipeline and responses may return out of order.
//   - TCPPoolTransport spreads calls across N such connections,
//     checking out the least-loaded live connection per call and
//     redialing dead ones on demand.
//
// Wire format, after a 5-byte client handshake ("SBQM" + version):
//
//	request:  u32 BE frame length | u64 BE id | u8 wire code |
//	          u16 BE action length | action | envelope bytes
//	response: u32 BE frame length | u64 BE id | u8 wire code | envelope
//
// The handshake makes the protocol self-selecting on the server's
// existing TCP port: a legacy exchange starts with a frame length, and
// "SBQM" read as a length is 0x5342514D ≈ 1.4 GiB — far above
// maxTCPFrame, so no legacy client can ever begin with those bytes.
// TCPListener sniffs the first four bytes of each connection and serves
// whichever protocol the client speaks.
//
// Syscall budget: on a *net.TCPConn each side sends a frame with one
// writev of header and body (frameWriter) and receives it with at most
// one read through a per-connection 16 KiB bufio.Reader — a body larger
// than the buffer is read straight into its pooled payload. On a wrapped
// conn (fault injection, netem) the writev falls back to one Write per
// slice, header first, which keeps injected faults where they always
// landed. The client sets a write deadline only when it differs from the
// one already on the connection.
//
// Server workers: each served connection keeps up to GOMAXPROCS
// long-lived workers, started on demand and fed by an unbuffered
// channel, so a request does not pay for a fresh goroutine and its stack
// growth. A request arriving while every worker is busy gets a one-shot
// goroutine, so requests still never wait behind one another and the
// goroutine count is bounded by in-flight requests, as before. Workers
// exit when the connection's read loop ends.
//
// Cancellation abandons, never corrupts: a caller whose context ends
// deregisters its correlation ID and returns immediately; the response,
// whenever it arrives, is read fully (keeping the stream framed) and
// dropped. A connection is only torn down on real I/O errors — a write
// that fails partway has corrupted the outbound stream, so the
// connection is failed and every pending call on it is woken with the
// error.

const (
	muxVersion  = 1
	muxRespHdr  = 8 + 1     // id + wire code
	muxReqFixed = 8 + 1 + 2 // id + wire code + action length
)

// muxMagic is the client handshake prefix. See the protocol note above
// for why it cannot collide with a legacy frame.
var muxMagic = [4]byte{'S', 'B', 'Q', 'M'}

// errMuxClosed reports a call on a closed pool.
var errMuxClosed = errors.New("core: tcp pool closed")

// muxReply carries one response (or the connection's fatal error) to the
// caller that registered its correlation ID.
type muxReply struct {
	code byte
	body []byte
	err  error
}

// muxConn is one multiplexed connection: concurrent callers register a
// correlation ID, write their frame (serialized on wmu), and wait; the
// reader goroutine routes response frames back by ID.
type muxConn struct {
	conn net.Conn

	wmu sync.Mutex  // serializes whole-frame writes
	w   frameWriter // guarded by wmu

	mu      sync.Mutex
	pending map[uint64]chan muxReply
	nextID  uint64
	dead    error // non-nil once the connection is unusable

	inflight atomic.Int64 // registered, unanswered calls (checkout load metric)
}

// dialMux connects and performs the client handshake.
func dialMux(ctx context.Context, addr string) (*muxConn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("core: tcp dial: %w", err)
	}
	hello := [5]byte{muxMagic[0], muxMagic[1], muxMagic[2], muxMagic[3], muxVersion}
	if deadline, ok := ctx.Deadline(); ok {
		conn.SetWriteDeadline(deadline)
	}
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("core: mux handshake: %w", err)
	}
	conn.SetWriteDeadline(time.Time{})
	tcpDials.Inc()
	m := newMuxConn(conn)
	go m.readLoop()
	return m, nil
}

// newMuxConn wraps a connection that has completed the handshake; the
// caller starts its readLoop.
func newMuxConn(conn net.Conn) *muxConn {
	muxConns.Add(1)
	m := &muxConn{conn: conn, pending: make(map[uint64]chan muxReply)}
	m.w = frameWriter{conn: conn, mux: true, request: true}
	return m
}

// readLoop dispatches response frames by correlation ID until the
// connection dies. Responses for abandoned IDs are dropped whole, which
// is what keeps cancellation from corrupting the stream.
func (m *muxConn) readLoop() {
	r := bufio.NewReaderSize(m.conn, frameReadBuf)
	for {
		id, code, body, err := readMuxFrame(r, muxRespHdr)
		if err != nil {
			m.fail(err)
			return
		}
		m.mu.Lock()
		ch, ok := m.pending[id]
		if ok {
			delete(m.pending, id)
		}
		m.mu.Unlock()
		if ok {
			ch <- muxReply{code: code, body: body} // buffered; never blocks
		} else {
			bufpool.Put(body) // abandoned call: drop the late response
		}
	}
}

// fail marks the connection dead and wakes every pending caller.
func (m *muxConn) fail(err error) {
	m.mu.Lock()
	if m.dead == nil {
		m.dead = err
		muxConns.Add(-1)
		muxConnFailures.Inc()
	}
	waiters := m.pending
	m.pending = make(map[uint64]chan muxReply)
	m.mu.Unlock()
	m.conn.Close()
	for _, ch := range waiters {
		ch <- muxReply{err: err}
	}
}

// isDead reports whether the connection has been failed.
func (m *muxConn) isDead() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dead != nil
}

// call performs one correlated exchange. On context expiry the call is
// abandoned: the ID is deregistered, the caller returns ctx.Err(), and
// the connection stays healthy for its other users.
func (m *muxConn) call(ctx context.Context, code byte, action string, body []byte) (muxReply, error) {
	ch := make(chan muxReply, 1)
	m.mu.Lock()
	if m.dead != nil {
		err := m.dead
		m.mu.Unlock()
		return muxReply{}, err
	}
	m.nextID++
	id := m.nextID
	m.pending[id] = ch
	m.mu.Unlock()
	m.inflight.Add(1)
	muxInflight.Add(1)
	defer func() {
		m.inflight.Add(-1)
		muxInflight.Add(-1)
	}()

	// A caller deadline becomes the write deadline so a stalled peer
	// cannot hold the write lock past the caller's budget.
	deadline, _ := ctx.Deadline()
	m.wmu.Lock()
	err := m.w.setDeadline(deadline)
	if err == nil {
		err = m.w.writeFrame(id, code, action, body)
	}
	m.wmu.Unlock()
	if err != nil {
		// A partial frame corrupts the outbound stream for everyone:
		// fail the whole connection, not just this call.
		m.fail(err)
		m.forget(id)
		return muxReply{}, err
	}
	select {
	case r := <-ch:
		if r.err != nil {
			return muxReply{}, r.err
		}
		return r, nil
	case <-ctx.Done():
		m.forget(id)
		return muxReply{}, ctx.Err()
	}
}

// forget deregisters an ID whose caller gave up; a reply that already
// raced into the channel is released.
func (m *muxConn) forget(id uint64) {
	m.mu.Lock()
	ch, ok := m.pending[id]
	if ok {
		delete(m.pending, id)
	}
	m.mu.Unlock()
	if !ok {
		// The reader already delivered; drain so the buffer is released.
		select {
		case r := <-ch:
			bufpool.Put(r.body)
		default:
		}
	}
}

// readMuxFrame reads one correlated frame: length, id, wire code, and
// the remaining payload (in a pooled buffer the caller owns). minHdr is
// the smallest legal frame for the direction being read.
func readMuxFrame(r *bufio.Reader, minHdr int) (id uint64, code byte, payload []byte, err error) {
	hdr, err := r.Peek(4 + muxRespHdr)
	if err != nil {
		return 0, 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:4]))
	if n < minHdr || n > maxTCPFrame {
		return 0, 0, nil, fmt.Errorf("core: bad mux frame length %d", n)
	}
	id = binary.BigEndian.Uint64(hdr[4:12])
	code = hdr[12]
	r.Discard(len(hdr)) // cannot fail: Peek buffered these bytes
	payload, err = readPayload(r, n-muxRespHdr)
	if err != nil {
		return 0, 0, nil, err
	}
	return id, code, payload, nil
}

// muxRequest is one parsed request frame awaiting a worker. body and
// action alias payload, the pooled frame buffer the worker releases.
type muxRequest struct {
	id      uint64
	ct      string
	action  string
	body    []byte
	payload []byte
}

// serveMux handles one multiplexed connection server-side: requests are
// dispatched concurrently (that is the pipelining) to the connection's
// workers, responses serialize on a write lock. The connection's
// lifetime bounds its handlers.
func (l *TCPListener) serveMux(conn net.Conn) {
	r := bufio.NewReaderSize(conn, frameReadBuf)
	var wmu sync.Mutex
	w := frameWriter{conn: conn, mux: true}
	serve := func(req muxRequest) {
		respCT, respBody := l.proc.Process(l.ctx, req.ct, req.action, req.body)
		bufpool.Put(req.payload) // body's backing buffer; Process is done with it
		respCode, err := wireToCode(respCT)
		if err != nil {
			return
		}
		wmu.Lock()
		err = w.writeFrame(req.id, respCode, "", respBody)
		wmu.Unlock()
		bufpool.Put(respBody) // Process output is always a fresh or pooled buffer
		if err != nil {
			conn.Close() // partial response frame: stream corrupt
		}
	}

	work := make(chan muxRequest)  // unbuffered: a send succeeds only to an idle worker
	spare := runtime.GOMAXPROCS(0) // workers not yet started
	var wg sync.WaitGroup
	defer func() {
		close(work)
		wg.Wait()
	}()
	for {
		id, code, payload, err := readMuxFrame(r, muxReqFixed)
		if err != nil {
			return
		}
		if len(payload) < 2 {
			bufpool.Put(payload)
			return
		}
		alen := int(binary.BigEndian.Uint16(payload))
		if len(payload)-2 < alen {
			bufpool.Put(payload)
			return
		}
		ct, err := codeToWire(code)
		if err != nil {
			bufpool.Put(payload)
			return
		}
		req := muxRequest{id: id, ct: ct, action: string(payload[2 : 2+alen]), body: payload[2+alen:], payload: payload}
		select {
		case work <- req:
			continue
		default:
		}
		// Every started worker is busy: start another while under the
		// bound, else run this request on a one-shot goroutine.
		wg.Add(1)
		if spare > 0 {
			spare--
			go func() {
				defer wg.Done()
				serve(req)
				for req := range work {
					serve(req)
				}
			}()
		} else {
			go func() {
				defer wg.Done()
				serve(req)
			}()
		}
	}
}

// TCPPoolTransport is a Transport over a pool of multiplexed TCP
// connections: up to Conns connections per endpoint, each carrying many
// concurrent correlated calls. Checkout is health-aware — dead
// connections are skipped and redialed on demand, live ones are picked
// by lowest in-flight load — and composes with the client-level circuit
// breaker, which sees dial failures and timeouts exactly as it does on
// any other transport.
//
// Safe for concurrent use.
type TCPPoolTransport struct {
	addr string
	size int

	// leases counts RoundTrips between admission and completion. It is
	// taken BEFORE checkout consults the draining flag (both ordered by
	// mu), so Drain — which flips the flag, then waits for leases to hit
	// zero — can never close the pool under a call that was admitted but
	// has not yet registered its stream on a connection.
	leases atomic.Int64

	mu       sync.Mutex
	conns    []*muxConn
	closed   bool
	draining bool
}

// NewTCPPoolTransport returns a pooled transport for the SOAP-bin TCP
// endpoint at addr, dialing lazily. conns is clamped to at least 1;
// 4 is a reasonable default for backend fan-in.
func NewTCPPoolTransport(addr string, conns int) *TCPPoolTransport {
	if conns < 1 {
		conns = 1
	}
	return &TCPPoolTransport{addr: addr, size: conns, conns: make([]*muxConn, conns)}
}

// Close fails every connection; pending calls are woken with an error.
func (t *TCPPoolTransport) Close() error {
	t.mu.Lock()
	t.closed = true
	conns := make([]*muxConn, len(t.conns))
	copy(conns, t.conns)
	t.mu.Unlock()
	for _, m := range conns {
		if m != nil {
			m.fail(errMuxClosed)
		}
	}
	return nil
}

// Drain gracefully retires the pool, mirroring Server.Shutdown: new
// checkouts fail immediately with a Server.Unavailable.Draining fault
// (so concurrent callers fail over instead of blocking until the mux
// closes), in-flight correlated calls run to completion, and the
// connections are closed once the pool is idle. If ctx ends first the
// pool is closed anyway — pending calls are woken with an error — and
// ctx's error is returned.
func (t *TCPPoolTransport) Drain(ctx context.Context) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.draining = true
	t.mu.Unlock()

	ticker := time.NewTicker(2 * time.Millisecond)
	defer ticker.Stop()
	for {
		if t.leases.Load() == 0 {
			return t.Close()
		}
		select {
		case <-ctx.Done():
			t.Close()
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// Draining reports whether Drain has been called.
func (t *TCPPoolTransport) Draining() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.draining && !t.closed
}

// checkout returns a live connection: the least-loaded of the live
// slots, or a fresh dial into the first empty/dead slot while the pool
// is not yet full. Dialing happens outside the pool lock; a lost dial
// race simply yields a connection that is closed again.
func (t *TCPPoolTransport) checkout(ctx context.Context) (*muxConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, errMuxClosed
	}
	if t.draining {
		// Refuse immediately with an unavailable-family fault: the caller
		// (a router, a retrying client) fails over elsewhere instead of
		// blocking until the pool finishes draining.
		t.mu.Unlock()
		return nil, soap.DrainingFault(0)
	}
	var best *muxConn
	empty := -1
	for i, m := range t.conns {
		if m == nil || m.isDead() {
			if empty < 0 {
				empty = i
			}
			continue
		}
		if best == nil || m.inflight.Load() < best.inflight.Load() {
			best = m
		}
	}
	t.mu.Unlock()

	if empty < 0 {
		return best, nil
	}
	// Fill the pool: concurrency only spreads across connections that
	// exist. Dial failures fall back to a live connection when one exists.
	m, err := dialMux(ctx, t.addr)
	if err != nil {
		if best != nil {
			return best, nil
		}
		return nil, err
	}
	t.mu.Lock()
	if t.closed || t.draining {
		// The pool closed or entered drain while we were dialing; the
		// fresh connection must not admit a call the drain would then
		// have to wait out.
		draining := t.draining
		t.mu.Unlock()
		m.fail(errMuxClosed)
		if draining {
			return nil, soap.DrainingFault(0)
		}
		return nil, errMuxClosed
	}
	if old := t.conns[empty]; old == nil || old.isDead() {
		t.conns[empty] = m
		t.mu.Unlock()
		return m, nil
	}
	// Another caller filled the slot first; use ours anyway and let the
	// pool keep the winner.
	t.mu.Unlock()
	m.fail(errMuxClosed)
	if best != nil {
		return best, nil
	}
	return t.checkout(ctx)
}

// RoundTrip implements Transport. A connection-level failure is retried
// once on a fresh connection (matching TCPTransport's single reconnect);
// a done context is final and surfaces the context's own error.
func (t *TCPPoolTransport) RoundTrip(ctx context.Context, req *WireRequest) (*WireResponse, error) {
	code, err := wireToCode(req.ContentType)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t.leases.Add(1)
	defer t.leases.Add(-1)
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		m, err := t.checkout(ctx)
		if err != nil {
			return nil, err
		}
		r, err := m.call(ctx, code, req.Action, req.Body)
		if err == nil {
			ct, cerr := codeToWire(r.code)
			if cerr != nil {
				return nil, cerr
			}
			return &WireResponse{ContentType: ct, Body: r.body}, nil
		}
		if ce := ctxTimeout(ctx, err); ce != nil {
			return nil, ce
		}
		lastErr = err
	}
	return nil, lastErr
}

// PooledResponseBodies implements PooledBodyTransport: response bodies
// come from readMuxFrame's pooled buffers and are owned by the caller.
func (t *TCPPoolTransport) PooledResponseBodies() bool { return true }

var (
	_ Transport           = (*TCPPoolTransport)(nil)
	_ PooledBodyTransport = (*TCPPoolTransport)(nil)
)

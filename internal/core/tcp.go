package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"soapbinq/internal/bufpool"
)

// Raw TCP transport for SOAP-bin. The paper attributes SOAP-bin's gap
// against Sun RPC "mainly to SOAP-bin's use of HTTP for its transactions";
// for the high-performance mode's internal back-end communications no
// HTTP semantics are needed, so this transport exchanges envelopes over a
// persistent framed TCP connection instead:
//
//	u32 big-endian frame length | 1-byte wire code | envelope bytes
//
// Requests carry an extra length-prefixed action string before the body
// (XML wires need it; the binary envelope carries its own op).

const (
	tcpWireBinary     = 1
	tcpWireXML        = 2
	tcpWireXMLDeflate = 3

	maxTCPFrame = 256 << 20
)

func wireToCode(ct string) (byte, error) {
	switch ct {
	case ContentTypeBinary:
		return tcpWireBinary, nil
	case ContentTypeXML, "text/xml":
		return tcpWireXML, nil
	case ContentTypeXMLDeflate:
		return tcpWireXMLDeflate, nil
	default:
		return 0, fmt.Errorf("core: unsupported content type %q", ct)
	}
}

func codeToWire(code byte) (string, error) {
	switch code {
	case tcpWireBinary:
		return ContentTypeBinary, nil
	case tcpWireXML:
		return ContentTypeXML, nil
	case tcpWireXMLDeflate:
		return ContentTypeXMLDeflate, nil
	default:
		return "", fmt.Errorf("core: unknown wire code %d", code)
	}
}

// Processor handles one serialized envelope and always answers with one
// — failures become fault envelopes, never errors. It is the surface the
// TCP listeners (legacy and multiplexed alike) serve: *Server implements
// it by dispatching to handlers, and the front router implements it by
// forwarding the raw envelope to a backend, which is what lets a router
// speak both wire protocols on a shared listener without re-encoding.
//
// The returned body is owned by the caller and may be recycled with
// bufpool.Put once written.
type Processor interface {
	Process(ctx context.Context, contentType, action string, body []byte) (respContentType string, respBody []byte)
}

var _ Processor = (*Server)(nil)

// TCPListener serves a Processor over raw TCP framing.
type TCPListener struct {
	proc   Processor
	ctx    context.Context // parent of every request's context
	cancel context.CancelFunc

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// ServeTCP binds addr and dispatches framed envelopes to proc until
// Close. It returns once the listener is bound.
func ServeTCP(proc Processor, addr string) (*TCPListener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("core: tcp listen: %w", err)
	}
	return ServeTCPListener(proc, ln), nil
}

// ServeTCPListener dispatches framed envelopes from an already-bound
// listener — the hook for wrapping the accept path with netem
// throttling or fault injection before the processor sees a connection.
func ServeTCPListener(proc Processor, ln net.Listener) *TCPListener {
	//lint:ignore ctxfirst the listener owns this root; Close cancels it for every in-flight request
	ctx, cancel := context.WithCancel(context.Background())
	l := &TCPListener{proc: proc, ctx: ctx, cancel: cancel, listener: ln, conns: make(map[net.Conn]struct{})}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			l.mu.Lock()
			if l.closed {
				l.mu.Unlock()
				conn.Close()
				return
			}
			l.conns[conn] = struct{}{}
			l.mu.Unlock()
			l.wg.Add(1)
			go func() {
				defer l.wg.Done()
				l.serveConn(conn)
			}()
		}
	}()
	return l
}

// Addr returns the bound address.
func (l *TCPListener) Addr() string {
	return l.listener.Addr().String()
}

// Close stops the listener and closes live connections.
func (l *TCPListener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.cancel() // unblocks in-flight handlers watching their context
	l.listener.Close()
	for c := range l.conns {
		c.Close()
	}
	l.mu.Unlock()
	l.wg.Wait()
	return nil
}

func (l *TCPListener) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
	}()
	// Protocol sniff: a multiplexed client opens with the "SBQM"
	// handshake, a legacy client with a frame length. The two cannot
	// collide — see the protocol note in tcpmux.go.
	var first [4]byte
	if _, err := io.ReadFull(conn, first[:]); err != nil {
		return
	}
	if first == muxMagic {
		var ver [1]byte
		if _, err := io.ReadFull(conn, ver[:]); err != nil || ver[0] != muxVersion {
			return
		}
		l.serveMux(conn)
		return
	}
	l.serveLegacy(first[:], conn)
}

// serveLegacy is the one-exchange-at-a-time framed loop; sniffed holds
// the bytes the protocol sniff already consumed.
func (l *TCPListener) serveLegacy(sniffed []byte, conn net.Conn) {
	r := bufio.NewReaderSize(io.MultiReader(bytes.NewReader(sniffed), conn), frameReadBuf)
	fw := frameWriter{conn: conn}
	for {
		code, action, body, err := readTCPRequest(r)
		if err != nil {
			return
		}
		ct, err := codeToWire(code)
		if err != nil {
			bufpool.Put(body)
			return
		}
		respCT, respBody := l.proc.Process(l.ctx, ct, action, body)
		bufpool.Put(body) // Process copies what it keeps; the frame buffer is free
		respCode, err := wireToCode(respCT)
		if err != nil {
			return
		}
		werr := fw.writeFrame(0, respCode, "", respBody)
		bufpool.Put(respBody)
		if werr != nil {
			return
		}
	}
}

// TCPTransport is a Transport over one persistent raw TCP connection.
// Safe for concurrent use; calls serialize on the connection.
type TCPTransport struct {
	addr string

	mu   sync.Mutex
	conn net.Conn
	fw   frameWriter // writes on conn; reset at every dial
}

// NewTCPTransport returns a transport for the SOAP-bin TCP endpoint at
// addr, dialing lazily.
func NewTCPTransport(addr string) *TCPTransport {
	return &TCPTransport{addr: addr}
}

// Close drops the connection.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.conn != nil {
		err := t.conn.Close()
		t.conn = nil
		return err
	}
	return nil
}

// RoundTrip implements Transport. Context deadlines become connection
// read/write deadlines; plain cancellation is enforced by a watcher that
// yanks the in-flight I/O. A connection abandoned mid-frame is poisoned
// and dropped so the next call redials cleanly.
func (t *TCPTransport) RoundTrip(ctx context.Context, req *WireRequest) (*WireResponse, error) {
	code, err := wireToCode(req.ContentType)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp, err := t.tryOnce(ctx, code, req)
	if err == nil {
		return resp, nil
	}
	t.dropConn()
	// A done context is final: no reconnect, and the caller sees the
	// context's own error.
	if ce := ctxTimeout(ctx, err); ce != nil {
		return nil, ce
	}
	// One reconnect attempt for stale connections.
	resp, err = t.tryOnce(ctx, code, req)
	if err != nil {
		t.dropConn()
		if ce := ctxTimeout(ctx, err); ce != nil {
			return nil, ce
		}
	}
	return resp, err
}

// ctxTimeout attributes a transport failure to the context when the
// context is what ended the exchange. The connection deadline is derived
// from ctx, but the poller's timer can fire a hair before the context's
// own timer flips Err() non-nil — without this, a raw "i/o timeout"
// escapes as a retriable transport error when the call's budget is what
// actually expired. Once the deadline has passed, ctx's timer is due, so
// ctxTimeout waits for it: callers that then consult ctx.Err() (the
// client turns it into a deadline fault) agree with the transport.
func ctxTimeout(ctx context.Context, err error) error {
	if ce := ctx.Err(); ce != nil {
		return ce
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
			<-ctx.Done()
			return ctx.Err()
		}
	}
	return nil
}

// dropConn closes and forgets the connection (holding t.mu).
func (t *TCPTransport) dropConn() {
	if t.conn != nil {
		t.conn.Close()
		t.conn = nil
	}
}

func (t *TCPTransport) tryOnce(ctx context.Context, code byte, req *WireRequest) (*WireResponse, error) {
	if t.conn == nil {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", t.addr)
		if err != nil {
			return nil, fmt.Errorf("core: tcp dial: %w", err)
		}
		tcpDials.Inc()
		t.conn = conn
		t.fw = frameWriter{conn: conn, request: true}
	}
	conn := t.conn
	// Derive I/O deadlines from the context; clear any deadline a
	// previous call left behind.
	if deadline, ok := ctx.Deadline(); ok {
		conn.SetDeadline(deadline)
	} else {
		conn.SetDeadline(time.Time{})
	}
	// Mid-call cancellation: unblock the pending read/write immediately
	// rather than waiting for a deadline that may not exist.
	if ctx.Done() != nil {
		watchStop := make(chan struct{})
		watchDone := make(chan struct{})
		go func() {
			defer close(watchDone)
			select {
			case <-ctx.Done():
				conn.SetDeadline(time.Unix(1, 0)) // in the past: fails in-flight I/O
			case <-watchStop:
			}
		}()
		defer func() {
			close(watchStop)
			<-watchDone
		}()
	}
	if err := t.fw.writeFrame(0, code, req.Action, req.Body); err != nil {
		return nil, err
	}
	respCode, body, err := readTCPFrame(conn)
	if err != nil {
		return nil, err
	}
	ct, err := codeToWire(respCode)
	if err != nil {
		return nil, err
	}
	return &WireResponse{ContentType: ct, Body: body}, nil
}

// PooledResponseBodies implements PooledBodyTransport: response bodies
// come from readTCPFrame's pooled buffers and are owned by the caller.
func (t *TCPTransport) PooledResponseBodies() bool { return true }

var (
	_ Transport           = (*TCPTransport)(nil)
	_ PooledBodyTransport = (*TCPTransport)(nil)
)

// Framing helpers. Requests embed the action; responses are bare frames.

// frameReadBuf sizes the per-connection read buffer of both TCP
// protocols: a frame header and a small body arrive with one read, and a
// body larger than the buffer is read straight into its payload.
const frameReadBuf = 16 << 10

// frameWriter sends whole frames on one connection, for both wire
// protocols:
//
//	u32 BE frame length | [u64 BE id] | u8 wire code |
//	[u16 BE action length | action] | body
//
// The id is present on a multiplexed connection, the action on requests.
// Header and body go out as one net.Buffers write: a single writev on a
// *net.TCPConn; on a wrapped conn (fault injection, netem) one Write per
// slice, header first. The body is never copied and nothing is allocated
// per frame. Not safe for concurrent use: callers serialize on their
// connection's write lock.
type frameWriter struct {
	conn    net.Conn
	mux     bool // frames carry a correlation id
	request bool // frames carry an action

	hdr      [64]byte // header scratch; a longer action spills to the heap
	bufs     [2][]byte
	vec      net.Buffers // a field, so WriteTo's receiver does not escape per frame
	deadline time.Time   // write deadline currently set on conn; zero for none
}

// setDeadline sets conn's write deadline to d (zero clears it), calling
// into the conn only when d differs from the one already set.
func (w *frameWriter) setDeadline(d time.Time) error {
	if d.Equal(w.deadline) {
		return nil
	}
	if err := w.conn.SetWriteDeadline(d); err != nil {
		return err
	}
	w.deadline = d
	return nil
}

// writeFrame frames and writes one message. id is ignored on a legacy
// connection and action on a response.
func (w *frameWriter) writeFrame(id uint64, code byte, action string, body []byte) error {
	h := append(w.hdr[:0], 0, 0, 0, 0)
	if w.mux {
		h = binary.BigEndian.AppendUint64(h, id)
	}
	h = append(h, code)
	if w.request {
		if len(action) > 0xFFFF {
			return errors.New("core: action too long")
		}
		h = binary.BigEndian.AppendUint16(h, uint16(len(action)))
		h = append(h, action...)
	}
	n := len(h) - 4 + len(body)
	if n > maxTCPFrame {
		return fmt.Errorf("core: frame exceeds %d byte limit", maxTCPFrame)
	}
	binary.BigEndian.PutUint32(h, uint32(n))
	w.bufs = [2][]byte{h, body}
	w.vec = w.bufs[:]
	_, err := w.vec.WriteTo(w.conn)
	return err
}

func readTCPRequest(r io.Reader) (code byte, action string, body []byte, err error) {
	code, payload, err := readTCPFrame(r)
	if err != nil {
		return 0, "", nil, err
	}
	if len(payload) < 2 {
		return 0, "", nil, errors.New("core: truncated tcp request")
	}
	n := int(binary.BigEndian.Uint16(payload))
	payload = payload[2:]
	if len(payload) < n {
		return 0, "", nil, errors.New("core: truncated action")
	}
	return code, string(payload[:n]), payload[n:], nil
}

// readTCPFrame reads one frame into a pooled buffer; the returned body
// (and hence its backing buffer) is owned by the caller.
//
//soaplint:hotpath
func readTCPFrame(r io.Reader) (byte, []byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n == 0 || n > maxTCPFrame {
		return 0, nil, fmt.Errorf("core: bad tcp frame length %d", n)
	}
	buf, err := readPayload(r, int(n))
	if err != nil {
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}

// readPayload reads an n-byte frame payload into a pooled buffer the
// caller owns. The buffer starts at min(n, bufpool.MaxPooled) and grows
// only as bytes arrive, so a declared length alone — up to maxTCPFrame —
// cannot make the reader allocate that much.
//
//soaplint:hotpath
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := bufpool.Get(min(n, bufpool.MaxPooled))
	for {
		m, err := io.ReadFull(r, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+m]
		if err != nil {
			bufpool.Put(buf)
			return nil, err
		}
		if len(buf) == n {
			return buf, nil
		}
		grown := append(bufpool.Get(min(2*cap(buf), n)), buf...)
		bufpool.Put(buf)
		buf = grown
	}
}

// ProbeTCP performs one active health-check round trip against a
// SOAP-bin TCP endpoint: dial, send a minimal legacy-framed XML request
// (empty action — the server answers it with a Client fault envelope),
// and read the response frame. A healthy endpoint completes the whole
// exchange; a dead one fails the dial, and a gray-failed one — accepting
// connections but never answering (the blackhole fault) — fails the
// read at ctx's deadline. Any well-formed response frame, fault
// included, counts as healthy: the probe tests the request path, not the
// application.
func ProbeTCP(ctx context.Context, addr string) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return fmt.Errorf("core: probe dial: %w", err)
	}
	defer conn.Close()
	if deadline, ok := ctx.Deadline(); ok {
		conn.SetDeadline(deadline)
	}
	if ctx.Done() != nil {
		watchStop := make(chan struct{})
		watchDone := make(chan struct{})
		go func() {
			defer close(watchDone)
			select {
			case <-ctx.Done():
				conn.SetDeadline(time.Unix(1, 0)) // in the past: fails in-flight I/O
			case <-watchStop:
			}
		}()
		defer func() {
			close(watchStop)
			<-watchDone
		}()
	}
	fw := frameWriter{conn: conn, request: true}
	if err := fw.writeFrame(0, tcpWireXML, "", nil); err != nil {
		return fmt.Errorf("core: probe write: %w", err)
	}
	_, body, err := readTCPFrame(conn)
	if err != nil {
		if ce := ctxTimeout(ctx, err); ce != nil {
			return fmt.Errorf("core: probe: %w", ce)
		}
		return fmt.Errorf("core: probe read: %w", err)
	}
	bufpool.Put(body)
	return nil
}

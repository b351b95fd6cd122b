package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"soapbinq/internal/bufpool"
	"soapbinq/internal/idl"
	"soapbinq/internal/pbio"
	"soapbinq/internal/soap"
	"soapbinq/internal/workload"
)

// muxRig is a pooled-transport client/server pair. arm(true) makes the
// echo handler block on gate (for cancellation tests).
type muxRig struct {
	client *Client
	ln     *TCPListener
	pool   *TCPPoolTransport
	gate   chan struct{}
	arm    func(bool)
}

// newMuxRig serves testService over TCP and returns a client on a pooled
// multiplexed transport of the given width.
func newMuxRig(t *testing.T, wire WireFormat, conns int) *muxRig {
	t.Helper()
	gate := make(chan struct{})
	blocked := false
	var mu sync.Mutex
	fs := pbio.NewMemServer()
	srv := NewServer(testService(), pbio.NewCodec(pbio.NewRegistry(fs)))
	srv.MustHandle("echo", func(cc *CallCtx, params []soap.Param) (idl.Value, error) {
		mu.Lock()
		b := blocked
		mu.Unlock()
		if b {
			select {
			case <-gate:
			case <-cc.Context().Done():
			}
		}
		return params[0].Value, nil
	})
	srv.MustHandle("fail", func(*CallCtx, []soap.Param) (idl.Value, error) {
		return idl.Value{}, errors.New("kaboom")
	})
	ln, err := ServeTCP(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	transport := NewTCPPoolTransport(ln.Addr(), conns)
	t.Cleanup(func() { transport.Close() })
	client := NewClient(testService(), transport, pbio.NewCodec(pbio.NewRegistry(fs)), wire)
	arm := func(on bool) {
		mu.Lock()
		blocked = on
		mu.Unlock()
	}
	return &muxRig{client: client, ln: ln, pool: transport, gate: gate, arm: arm}
}

func TestTCPPoolAllWires(t *testing.T) {
	payload := workload.NestedStruct(3, 2)
	for _, wire := range wires() {
		t.Run(wire.String(), func(t *testing.T) {
			client := newMuxRig(t, wire, 2).client
			resp, err := client.Call(context.Background(), "echo", soap.Header{"k": "v"}, soap.Param{Name: "payload", Value: payload})
			if err != nil {
				t.Fatal(err)
			}
			if !resp.Value.Equal(payload) {
				t.Error("echo over pooled TCP mismatch")
			}
		})
	}
}

func TestTCPPoolFaults(t *testing.T) {
	client := newMuxRig(t, WireBinary, 2).client
	_, err := client.Call(context.Background(), "fail", nil)
	var f *soap.Fault
	if !errors.As(err, &f) || f.String != "kaboom" {
		t.Fatalf("fault = %v", err)
	}
}

// TestTCPPoolConcurrentCalls drives 64 concurrent callers through a
// 4-connection pool: correlation must route every response to its own
// caller even though responses interleave across shared connections.
func TestTCPPoolConcurrentCalls(t *testing.T) {
	client := newMuxRig(t, WireBinary, 4).client
	const callers = 64
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			payload := workload.NestedStruct(3, 1+n%3)
			for j := 0; j < 5; j++ {
				resp, err := client.Call(context.Background(), "echo", nil, soap.Param{Name: "payload", Value: payload})
				if err != nil {
					errs <- err
					return
				}
				if !resp.Value.Equal(payload) {
					errs <- errors.New("response routed to wrong caller")
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestTCPPoolCancellationAbandons verifies the abandon-not-corrupt
// contract: a cancelled call returns promptly, and the same (single)
// connection keeps serving subsequent calls — the late response is
// dropped by correlation ID, not left in the stream to poison the next
// reader.
func TestTCPPoolCancellationAbandons(t *testing.T) {
	rig := newMuxRig(t, WireBinary, 1)
	client, gate := rig.client, rig.gate
	payload := workload.NestedStruct(3, 1)

	// Warm the single connection.
	if _, err := client.Call(context.Background(), "echo", nil, soap.Param{Name: "payload", Value: payload}); err != nil {
		t.Fatal(err)
	}

	rig.arm(true)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.Call(ctx, "echo", nil, soap.Param{Name: "payload", Value: payload})
	if err == nil {
		t.Fatal("cancelled call succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled call error = %v, want deadline", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	rig.arm(false)
	close(gate) // release the stuck handler; its response must be dropped

	// The same connection must still work: pool size is 1, so a corrupted
	// stream would fail (or misroute) this call.
	for i := 0; i < 5; i++ {
		resp, err := client.Call(context.Background(), "echo", nil, soap.Param{Name: "payload", Value: payload})
		if err != nil {
			t.Fatalf("call %d after abandon: %v", i, err)
		}
		if !resp.Value.Equal(payload) {
			t.Fatalf("call %d after abandon: response misrouted", i)
		}
	}
}

// TestTCPPoolReconnects kills every server-side connection and expects
// the pool to redial transparently.
func TestTCPPoolReconnects(t *testing.T) {
	rig := newMuxRig(t, WireBinary, 2)
	client, ln := rig.client, rig.ln
	payload := workload.NestedStruct(3, 1)
	if _, err := client.Call(context.Background(), "echo", nil, soap.Param{Name: "payload", Value: payload}); err != nil {
		t.Fatal(err)
	}
	ln.mu.Lock()
	for c := range ln.conns {
		c.Close()
	}
	ln.mu.Unlock()
	// The client side notices asynchronously; the transport's one-retry
	// plus health-aware checkout must absorb the dead connections.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := client.Call(context.Background(), "echo", nil, soap.Param{Name: "payload", Value: payload})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool did not recover: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPPoolBreakerComposes verifies the PR-3 circuit breaker works
// unchanged over the pooled transport: repeated failures against a dead
// endpoint trip it, after which calls fast-fail without dialing.
func TestTCPPoolBreakerComposes(t *testing.T) {
	tr := NewTCPPoolTransport("127.0.0.1:1", 2)
	defer tr.Close()
	client := NewClient(testService(), tr, pbio.NewCodec(pbio.NewRegistry(pbio.NewMemServer())), WireBinary)
	client.Breaker = NewBreaker(BreakerConfig{Window: 4, MinSamples: 2, Cooldown: time.Hour})
	payload := workload.NestedStruct(3, 1)
	for i := 0; i < 6; i++ {
		if _, err := client.Call(context.Background(), "echo", nil, soap.Param{Name: "payload", Value: payload}); err == nil {
			t.Fatal("dead endpoint succeeded")
		}
	}
	if client.Breaker.State() != BreakerOpen {
		t.Fatalf("breaker state = %v, want open", client.Breaker.State())
	}
	_, err := client.Call(context.Background(), "echo", nil, soap.Param{Name: "payload", Value: payload})
	if !errors.Is(err, soap.ErrUnavailable) {
		t.Fatalf("fast-fail error = %v, want unavailable family", err)
	}
	if client.Breaker.FastFails() == 0 {
		t.Error("breaker recorded no fast-fails")
	}
}

func TestTCPPoolClose(t *testing.T) {
	client := newMuxRig(t, WireBinary, 2).client
	payload := workload.NestedStruct(3, 1)
	if _, err := client.Call(context.Background(), "echo", nil, soap.Param{Name: "payload", Value: payload}); err != nil {
		t.Fatal(err)
	}
	tr := client.transport.(*TCPPoolTransport)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.RoundTrip(context.Background(), &WireRequest{ContentType: ContentTypeBinary, Body: []byte{1}}); !errors.Is(err, errMuxClosed) {
		t.Fatalf("call on closed pool = %v", err)
	}
}

// TestTCPPoolLegacyClientCoexists runs a legacy single-connection client
// and a pooled client against the same listener: the protocol sniff must
// route each connection to the right loop.
func TestTCPPoolLegacyClientCoexists(t *testing.T) {
	rig := newMuxRig(t, WireBinary, 2)
	client, ln := rig.client, rig.ln
	payload := workload.NestedStruct(3, 1)

	legacyTr := NewTCPTransport(ln.Addr())
	defer legacyTr.Close()
	legacy := NewClient(testService(), legacyTr, client.codec, WireBinary)

	for i := 0; i < 3; i++ {
		if _, err := client.Call(context.Background(), "echo", nil, soap.Param{Name: "payload", Value: payload}); err != nil {
			t.Fatalf("pooled call %d: %v", i, err)
		}
		if _, err := legacy.Call(context.Background(), "echo", nil, soap.Param{Name: "payload", Value: payload}); err != nil {
			t.Fatalf("legacy call %d: %v", i, err)
		}
	}
}

// TestTCPPoolDrainVsCheckout covers the checkout-vs-drain race: once a
// pool enters drain, a checkout fails immediately with an
// unavailable-family fault — so a router retries the call elsewhere —
// instead of blocking until the mux closes; the call already in flight
// when drain began runs to completion.
func TestTCPPoolDrainVsCheckout(t *testing.T) {
	rig := newMuxRig(t, WireBinary, 2)
	rig.arm(true)
	payload := workload.NestedStruct(3, 1)

	inFlight := make(chan error, 1)
	go func() {
		_, err := rig.client.Call(context.Background(), "echo", nil, soap.Param{Name: "payload", Value: payload})
		inFlight <- err
	}()
	poolLoad := func() int64 {
		rig.pool.mu.Lock()
		defer rig.pool.mu.Unlock()
		var n int64
		for _, m := range rig.pool.conns {
			if m != nil && !m.isDead() {
				n += m.inflight.Load()
			}
		}
		return n
	}
	deadline := time.Now().Add(5 * time.Second)
	for poolLoad() == 0 {
		select {
		case err := <-inFlight:
			t.Fatalf("blocked call returned early: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("blocked call never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() { drained <- rig.pool.Drain(context.Background()) }()
	for !rig.pool.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("pool never entered drain")
		}
		time.Sleep(time.Millisecond)
	}

	// The race under test: a checkout against the draining pool must be
	// refused now, not after the in-flight call (still parked on the
	// gate) finishes.
	start := time.Now()
	_, err := rig.pool.checkout(context.Background())
	if !errors.Is(err, soap.ErrUnavailable) {
		t.Fatalf("checkout during drain = %v, want ErrUnavailable family", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("draining checkout blocked %v", waited)
	}

	rig.arm(false)
	close(rig.gate)
	if err := <-inFlight; err != nil {
		t.Fatalf("in-flight call during drain: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Drain ends in Close: the pool is fully retired.
	if _, err := rig.pool.checkout(context.Background()); !errors.Is(err, errMuxClosed) {
		t.Fatalf("checkout after drain = %v, want closed", err)
	}
}

// TestTCPPoolDrainDeadline verifies a drain abandoned by its context
// still closes the pool and wakes the stuck call.
func TestTCPPoolDrainDeadline(t *testing.T) {
	rig := newMuxRig(t, WireBinary, 1)
	rig.arm(true)
	defer close(rig.gate)

	inFlight := make(chan error, 1)
	go func() {
		_, err := rig.client.Call(context.Background(), "echo", nil, soap.Param{Name: "payload", Value: workload.NestedStruct(3, 1)})
		inFlight <- err
	}()
	load := func() int64 {
		rig.pool.mu.Lock()
		defer rig.pool.mu.Unlock()
		if m := rig.pool.conns[0]; m != nil {
			return m.inflight.Load()
		}
		return 0
	}
	deadline := time.Now().Add(5 * time.Second)
	for load() == 0 {
		select {
		case err := <-inFlight:
			t.Fatalf("blocked call returned early: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("blocked call never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := rig.pool.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain past deadline = %v", err)
	}
	if err := <-inFlight; err == nil {
		t.Fatal("call stuck past drain deadline returned success")
	}
}

// echoProc is a Processor that answers every request with a copy of its
// body, so transport tests see the exact frame bodies they sent.
type echoProc struct{}

func (echoProc) Process(_ context.Context, ct, _ string, body []byte) (string, []byte) {
	return ct, append(bufpool.Get(len(body)), body...)
}

// barrierProc holds every request until n of them are in Process at
// once, or the request's context ends.
type barrierProc struct {
	n       int64
	arrived atomic.Int64
	all     chan struct{}
}

func (p *barrierProc) Process(ctx context.Context, ct, _ string, body []byte) (string, []byte) {
	if p.arrived.Add(1) == p.n {
		close(p.all)
	}
	select {
	case <-p.all:
	case <-ctx.Done():
	}
	return ct, append(bufpool.Get(len(body)), body...)
}

// TestTCPPoolNoHeadOfLineBlocking puts 4×GOMAXPROCS calls on one mux
// connection whose handlers only return once all of them are running:
// the server's fixed workers must not make any request wait behind
// another, or the barrier never opens.
func TestTCPPoolNoHeadOfLineBlocking(t *testing.T) {
	n := 4 * runtime.GOMAXPROCS(0)
	proc := &barrierProc{n: int64(n), all: make(chan struct{})}
	ln, err := ServeTCP(proc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	pool := NewTCPPoolTransport(ln.Addr(), 1)
	defer pool.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := pool.RoundTrip(ctx, &WireRequest{ContentType: ContentTypeBinary, Body: []byte{byte(i)}})
			if err == nil && !bytes.Equal(resp.Body, []byte{byte(i)}) {
				err = fmt.Errorf("call %d: response routed to wrong caller", i)
			}
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("%v (%d of %d handlers reached the barrier)", err, proc.arrived.Load(), n)
		}
	}
}

// TestTCPFrameSizesRoundTrip sends bodies on both sides of the 16 KiB
// read buffer and across a large read: pipelined on one mux connection,
// every caller must get its own body back byte for byte; the legacy
// protocol, through the same buffered reader, must do the same.
func TestTCPFrameSizesRoundTrip(t *testing.T) {
	sizes := []int{1, frameReadBuf - 1, frameReadBuf, frameReadBuf + 1, 1 << 20}
	rng := rand.New(rand.NewSource(1))
	bodies := make([][]byte, 2*len(sizes))
	for i := range bodies {
		bodies[i] = make([]byte, sizes[i%len(sizes)])
		rng.Read(bodies[i])
	}
	ln, err := ServeTCP(echoProc{}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	t.Run("mux", func(t *testing.T) {
		pool := NewTCPPoolTransport(ln.Addr(), 1)
		defer pool.Close()
		for round := 0; round < 3; round++ {
			var wg sync.WaitGroup
			for i, body := range bodies {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, err := pool.RoundTrip(context.Background(), &WireRequest{ContentType: ContentTypeBinary, Body: body})
					if err != nil {
						t.Errorf("body %d (%d B): %v", i, len(body), err)
						return
					}
					if !bytes.Equal(resp.Body, body) {
						t.Errorf("body %d (%d B): got a different %d B response", i, len(body), len(resp.Body))
					}
				}()
			}
			wg.Wait()
		}
	})
	t.Run("legacy", func(t *testing.T) {
		tr := NewTCPTransport(ln.Addr())
		defer tr.Close()
		for i, body := range bodies {
			resp, err := tr.RoundTrip(context.Background(), &WireRequest{ContentType: ContentTypeBinary, Body: body})
			if err != nil {
				t.Fatalf("body %d (%d B): %v", i, len(body), err)
			}
			if !bytes.Equal(resp.Body, body) {
				t.Fatalf("body %d (%d B): got a different %d B response", i, len(body), len(resp.Body))
			}
		}
	})
}

// TestFrameAllocationBoundedByBytesReceived sends a header declaring a
// 200 MiB frame and then ends the stream: the readers must fail without
// allocating anything near the declared size. A frame larger than the
// largest pooled buffer must still read back intact as it grows.
func TestFrameAllocationBoundedByBytesReceived(t *testing.T) {
	const declared = 200 << 20
	muxHdr := binary.BigEndian.AppendUint32(nil, declared)
	muxHdr = binary.BigEndian.AppendUint64(muxHdr, 7)
	muxHdr = append(muxHdr, tcpWireBinary)
	legacyHdr := append(binary.BigEndian.AppendUint32(nil, declared), tcpWireBinary)
	readers := map[string]func([]byte) error{
		"mux": func(stream []byte) error {
			_, _, _, err := readMuxFrame(bufio.NewReader(bytes.NewReader(stream)), muxRespHdr)
			return err
		},
		"legacy": func(stream []byte) error {
			_, _, err := readTCPFrame(bytes.NewReader(stream))
			return err
		},
	}
	for name, read := range readers {
		hdr := legacyHdr
		if name == "mux" {
			hdr = muxHdr
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := read(hdr)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: truncated %d B frame read without error", name, declared)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 8<<20 {
			t.Errorf("%s: header declaring %d B allocated %d B", name, declared, alloc)
		}
	}

	body := make([]byte, 2*bufpool.MaxPooled+3)
	rand.New(rand.NewSource(2)).Read(body)
	frame := append(binary.BigEndian.AppendUint32(nil, uint32(len(body)+1)), tcpWireBinary)
	frame = append(frame, body...)
	code, got, err := readTCPFrame(iotest.HalfReader(bytes.NewReader(frame)))
	if err != nil || code != tcpWireBinary || !bytes.Equal(got, body) {
		t.Fatalf("%d B frame: code %d, %d B, err %v", len(body), code, len(got), err)
	}
}

package main

import (
	"context"
	"net/http"
	"time"

	"soapbinq/internal/core"
	"soapbinq/internal/idl"
	"soapbinq/internal/soap"
)

// tracer times calls into each layer's public interface from the
// benchmark's side of it. Every decorator it builds records into a
// preallocated histogram and allocates nothing, and every method on a nil
// *tracer returns the wrapped value unchanged, so a rig built with a nil
// tracer is exactly the program under test.
type tracer struct {
	call     hist // client Call, as the caller sees it
	rt       hist // Transport.RoundTrip as the client sees it
	process  hist // Processor.Process / http.Handler of the serving core.Server
	outer    hist // the registered HandlerFunc (outside quality.Middleware)
	inner    hist // the application HandlerFunc (inside quality.Middleware)
	front    hist // front.Front.Process
	estimate hist // quality estimator after each call, ns
	link     hist // virtual round trip reported by the netem link, ns

	attempts, reqBytes, respBytes hist
}

func (t *tracer) observeCall(d time.Duration, attempts int) {
	if t != nil {
		t.call.recordDur(d)
		t.attempts.record(int64(attempts))
	}
}

func (t *tracer) observeQuality(estimate, link time.Duration) {
	if t != nil {
		t.estimate.recordDur(estimate)
		t.link.recordDur(link)
	}
}

// transport wraps a client transport. The wrapper implements exactly the
// marker interfaces inner implements: dropping core.PooledBodyTransport
// would stop the client recycling response buffers, and dropping
// core.TimedTransport would make the quality estimator fall back to wall
// clock — either way the traced run would measure another program.
func (t *tracer) transport(inner core.Transport) core.Transport {
	if t == nil {
		return inner
	}
	base := &timedTransport{inner: inner, t: t}
	pooled, isPooled := inner.(core.PooledBodyTransport)
	timed, isTimed := inner.(core.TimedTransport)
	switch {
	case isPooled && isTimed:
		return pooledTimedTransport{base, pooled, timed}
	case isPooled:
		return pooledTransport{base, pooled}
	case isTimed:
		return timedClockTransport{base, timed}
	}
	return base
}

type timedTransport struct {
	inner core.Transport
	t     *tracer
}

func (w *timedTransport) RoundTrip(ctx context.Context, req *core.WireRequest) (*core.WireResponse, error) {
	start := time.Now()
	resp, err := w.inner.RoundTrip(ctx, req)
	w.t.rt.recordDur(time.Since(start))
	w.t.reqBytes.record(int64(len(req.Body)))
	if err == nil {
		w.t.respBytes.record(int64(len(resp.Body)))
	}
	return resp, err
}

type pooledTransport struct {
	*timedTransport
	pooled core.PooledBodyTransport
}

func (w pooledTransport) PooledResponseBodies() bool { return w.pooled.PooledResponseBodies() }

type timedClockTransport struct {
	*timedTransport
	timed core.TimedTransport
}

func (w timedClockTransport) LastRoundTrip() time.Duration { return w.timed.LastRoundTrip() }

type pooledTimedTransport struct {
	*timedTransport
	pooled core.PooledBodyTransport
	timed  core.TimedTransport
}

func (w pooledTimedTransport) PooledResponseBodies() bool   { return w.pooled.PooledResponseBodies() }
func (w pooledTimedTransport) LastRoundTrip() time.Duration { return w.timed.LastRoundTrip() }

// processor wraps what core.ServeTCP serves, recording into h.
func (t *tracer) processor(inner core.Processor, h func(*tracer) *hist) core.Processor {
	if t == nil {
		return inner
	}
	return timedProcessor{inner: inner, h: h(t)}
}

type timedProcessor struct {
	inner core.Processor
	h     *hist
}

func (p timedProcessor) Process(ctx context.Context, contentType, action string, body []byte) (string, []byte) {
	start := time.Now()
	ct, resp := p.inner.Process(ctx, contentType, action, body)
	p.h.recordDur(time.Since(start))
	return ct, resp
}

// httpHandler wraps the HTTP binding of a core.Server.
func (t *tracer) httpHandler(inner http.Handler) http.Handler {
	if t == nil {
		return inner
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inner.ServeHTTP(w, r)
		t.process.recordDur(time.Since(start))
	})
}

// handler wraps a HandlerFunc, recording into h.
func (t *tracer) handler(inner core.HandlerFunc, h func(*tracer) *hist) core.HandlerFunc {
	if t == nil {
		return inner
	}
	hh := h(t)
	return func(ctx *core.CallCtx, params []soap.Param) (idl.Value, error) {
		start := time.Now()
		v, err := inner(ctx, params)
		hh.recordDur(time.Since(start))
		return v, err
	}
}

func processHist(t *tracer) *hist { return &t.process }
func frontHist(t *tracer) *hist   { return &t.front }
func outerHist(t *tracer) *hist   { return &t.outer }
func innerHist(t *tracer) *hist   { return &t.inner }

package main

import (
	"context"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"soapbinq/internal/bench"
	"soapbinq/internal/core"
	"soapbinq/internal/idl"
	"soapbinq/internal/moldyn"
	"soapbinq/internal/quality"
	"soapbinq/internal/soap"
)

type plainTransport struct{}

func (plainTransport) RoundTrip(context.Context, *core.WireRequest) (*core.WireResponse, error) {
	return &core.WireResponse{}, nil
}

type pooledOnly struct{ plainTransport }

func (pooledOnly) PooledResponseBodies() bool { return true }

type timedOnly struct{ plainTransport }

func (timedOnly) LastRoundTrip() time.Duration { return time.Second }

type pooledTimed struct{ plainTransport }

func (pooledTimed) PooledResponseBodies() bool   { return true }
func (pooledTimed) LastRoundTrip() time.Duration { return time.Second }

func markers(t core.Transport) (pooled, timed bool) {
	_, pooled = t.(core.PooledBodyTransport)
	_, timed = t.(core.TimedTransport)
	return pooled, timed
}

// The transport decorator must implement exactly the marker interfaces
// of what it wraps, and forward them.
func TestTransportDecoratorKeepsMarkers(t *testing.T) {
	for _, inner := range []core.Transport{plainTransport{}, pooledOnly{}, timedOnly{}, pooledTimed{}} {
		tr := new(tracer)
		wrapped := tr.transport(inner)
		wp, wt := markers(wrapped)
		ip, it := markers(inner)
		if wp != ip || wt != it {
			t.Errorf("%T: wrapper markers pooled=%v timed=%v, inner pooled=%v timed=%v", inner, wp, wt, ip, it)
		}
		if it && wrapped.(core.TimedTransport).LastRoundTrip() != time.Second {
			t.Errorf("%T: LastRoundTrip not forwarded", inner)
		}
		if _, err := wrapped.RoundTrip(context.Background(), &core.WireRequest{}); err != nil {
			t.Fatal(err)
		}
		if tr.rt.count() != 1 {
			t.Errorf("%T: round trip not recorded", inner)
		}
		var nilTracer *tracer
		if nilTracer.transport(inner) != inner {
			t.Errorf("%T: a nil tracer must leave the transport unwrapped", inner)
		}
	}
}

// runCalls builds w's rig (traced when tr is non-nil), warms it, and
// drives calls calls per caller, returning the tally and the allocations
// made per call.
func runCalls(t *testing.T, w workload, tr *tracer, calls int) (tally, float64) {
	t.Helper()
	ctx := context.Background()
	r, _, err := setup(ctx, w, 7, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	got := drive(ctx, w, r, func(_, n int) bool { return n >= calls })
	runtime.ReadMemStats(&ms1)
	if got.failed > 0 {
		t.Fatalf("%s: %d of %d calls failed: %v", w.name, got.failed, got.calls, got.firstErr)
	}
	return got, float64(ms1.Mallocs-ms0.Mallocs) / float64(got.calls)
}

// pinPrep overwrites the server's wall-clock preparation time, which the
// quality middleware sends in every response and the client subtracts
// from its virtual round trip, with a constant.
func pinPrep(h core.HandlerFunc) core.HandlerFunc {
	return func(ctx *core.CallCtx, params []soap.Param) (idl.Value, error) {
		v, err := h(ctx, params)
		ctx.SetResponseHeader(quality.PrepTimeHeader, "50000")
		return v, err
	}
}

// alignClientIDs makes the next two quality clients' ids, which travel
// in every request, the same length.
func alignClientIDs(t *testing.T) {
	t.Helper()
	policy, err := quality.ParsePolicyString(bench.Fig9PolicyText, moldyn.Types(), moldyn.Handlers())
	if err != nil {
		t.Fatal(err)
	}
	for {
		id := quality.NewClient(core.NewClient(moldyn.Spec(), nil, nil, core.WireBinary), policy).ID()
		n, err := strconv.Atoi(id[strings.LastIndexByte(id, '-')+1:])
		if err != nil {
			t.Fatalf("client id %q", id)
		}
		if len(strconv.Itoa(n+1)) == len(strconv.Itoa(n+2)) {
			return
		}
	}
}

// A traced rig must run the same program as a plain one: it moves the
// same bytes and, on quality_adsl, where the link is a virtual clock, the
// quality loop makes the same decisions at the same virtual times. The
// decorators add no allocations of their own.
func TestTracedRunMatchesPlain(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			calls := 200
			if w.name == "quality_adsl" {
				calls = 150
				w.prefix = calls
				w.build = func(seed uint64, tr *tracer) (rig, error) {
					return buildQuality(seed, tr, pinPrep)
				}
				alignClientIDs(t)
			}
			plain, plainAllocs := runCalls(t, w, nil, calls)
			traced, tracedAllocs := runCalls(t, w, new(tracer), calls)
			if plain.wire != traced.wire || plain.delivered != traced.delivered || plain.frames != traced.frames {
				t.Errorf("traced run differs: wire %d vs %d, delivered %g vs %g, frames %v vs %v",
					traced.wire, plain.wire, traced.delivered, plain.delivered, traced.frames, plain.frames)
			}
			if w.name == "quality_adsl" {
				if plain.inBand != traced.inBand {
					t.Errorf("%d calls in band traced, %d plain", traced.inBand, plain.inBand)
				}
				for i := range plain.links {
					if plain.links[i] != traced.links[i] {
						t.Fatalf("call %d: virtual round trip %v traced, %v plain", i, traced.links[i], plain.links[i])
					}
				}
			}
			if raceEnabled {
				return // the race detector changes pool and allocation behavior
			}
			// The decorators allocate nothing per call, but the tracer's
			// histograms (about 0.6 MB) enlarge the live heap, so the
			// collector runs less often and pooled objects survive longer:
			// on quality_adsl that saves about 2 of 1700 allocations a call.
			tol := math.Max(0.5, 0.005*plainAllocs)
			if d := tracedAllocs - plainAllocs; math.Abs(d) > tol {
				t.Errorf("allocs per call %.2f traced vs %.2f plain", tracedAllocs, plainAllocs)
			}
		})
	}
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"soapbinq/internal/core"
	"soapbinq/internal/idl"
	"soapbinq/internal/obs"
	"soapbinq/internal/pbio"
)

// runtimeSamples are the runtime/metrics series behind the runtime.*
// per-layer metrics.
var runtimeSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

type runtimeSnap struct {
	gcCycles     uint64
	gcCPU, cpu   float64
	sched        []uint64
	schedBuckets []float64
}

// runtimeDelta is the runtime's work between two snapshots.
type runtimeDelta struct {
	gcCycles     uint64
	gcCPUFrac    float64
	schedWaitP90 time.Duration
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	h := s[3].Value.Float64Histogram()
	return runtimeSnap{
		gcCycles:     s[0].Value.Uint64(),
		gcCPU:        s[1].Value.Float64(),
		cpu:          s[2].Value.Float64(),
		sched:        append([]uint64(nil), h.Counts...),
		schedBuckets: h.Buckets,
	}
}

func (s runtimeSnap) since(prev runtimeSnap) runtimeDelta {
	d := runtimeDelta{gcCycles: s.gcCycles - prev.gcCycles}
	if cpu := s.cpu - prev.cpu; cpu > 0 {
		d.gcCPUFrac = (s.gcCPU - prev.gcCPU) / cpu
	}
	var total uint64
	counts := make([]uint64, len(s.sched))
	for i := range s.sched {
		counts[i] = s.sched[i] - prev.sched[i]
		total += counts[i]
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if total > 0 && float64(cum) >= 0.9*float64(total) {
			// Upper edge of the bucket holding the 90th percentile.
			d.schedWaitP90 = time.Duration(s.schedBuckets[i+1] * 1e9)
			break
		}
	}
	return d
}

// obsCounters reads every series of the obs registry, summing labeled
// series under their metric name.
func obsCounters() (map[string]float64, error) {
	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func p50us(h *hist) float64 { return h.quantile(0.5) / 1e3 }

// codecTimes times pbio.Codec.AppendMarshal and UnmarshalInto directly on
// the workload's payload values, returning the mean over values of each
// value's median, in µs. A value that does not decode back to itself is
// an error.
func codecTimes(values []idl.Value) (enc, dec float64, err error) {
	codec := pbio.NewCodec(pbio.NewRegistry(pbio.NewMemServer()))
	for _, v := range values {
		var eh, dh hist
		var buf []byte
		var out idl.Value
		deadline := time.Now().Add(200 * time.Millisecond)
		for i := 0; i < 20000 && (i < 50 || time.Now().Before(deadline)); i++ {
			t0 := time.Now()
			if buf, err = codec.AppendMarshal(buf[:0], v); err != nil {
				return 0, 0, err
			}
			t1 := time.Now()
			if err = codec.UnmarshalInto(&out, buf); err != nil {
				return 0, 0, err
			}
			t2 := time.Now()
			if i >= 10 { // the first calls register formats and size buffers
				eh.recordDur(t1.Sub(t0))
				dh.recordDur(t2.Sub(t1))
			}
		}
		if !out.Equal(v) {
			return 0, 0, fmt.Errorf("pbio round trip of a %s payload changed it", v.Type)
		}
		enc += p50us(&eh) / float64(len(values))
		dec += p50us(&dh) / float64(len(values))
	}
	return enc, dec, nil
}

// runTraced measures the per-layer metrics. A traced window runs between
// two plain ones (ABA), so the tracing overhead compares stretches centred
// on the same moment. The first window lasts a third of dur; the other
// two make the same number of calls, so on quality_adsl all three cover
// the same stretch of the cross-traffic schedule.
func runTraced(ctx context.Context, w workload, seed uint64, dur time.Duration, out io.Writer) (result, error) {
	w.prefix = 0 // the deterministic quality prefix is an end-to-end matter
	a1, err := tracedWindow(ctx, w, seed, nil, forAtLeast(w, dur/3))
	if err != nil {
		return result{}, err
	}
	perCaller := int(a1.calls) / w.callers
	perCaller -= perCaller % w.cycle
	sameCalls := func(_, n int) bool { return n >= perCaller }
	t := new(tracer)
	b, err := tracedWindow(ctx, w, seed, t, sameCalls)
	if err != nil {
		return result{}, err
	}
	a2, err := tracedWindow(ctx, w, seed, nil, sameCalls)
	if err != nil {
		return result{}, err
	}
	enc, dec, err := codecTimes(b.payloads)
	if err != nil {
		return result{}, err
	}
	win := b.window
	calls := float64(win.calls)
	perK := func(n float64) float64 { return n / calls * 1e3 }
	delta := func(name string) float64 { return b.obs1[name] - b.obs0[name] }
	process := &t.process
	if process.count() == 0 {
		// codec_bulk's core.Loopback hands the envelope straight to
		// Server.Process, so its round trip is the server's processing.
		process = &t.rt
	}
	handler := &t.outer
	if handler.count() == 0 {
		handler = &t.inner
	}
	var faults, shed int
	handled := make([]float64, len(b.after))
	for i, after := range b.after {
		before := b.before[i]
		faults += after.Faults - before.Faults
		shed += after.Shed - before.Shed
		// Health probes reach the backends too, answered as faults.
		handled[i] = float64((after.Requests - after.Faults) - (before.Requests - before.Faults))
	}
	frames := 0.0
	for k := 1; k <= 4; k++ {
		frames += float64(k) * float64(win.frames[k])
	}
	quality := win.frames[1] + win.frames[2] + win.frames[3] + win.frames[4]

	plain := window{elapsed: a1.elapsed + a2.elapsed, cpu: a1.cpu + a2.cpu}
	plain.calls = a1.calls + a2.calls
	plain.failed = a1.failed + a2.failed
	if plain.firstErr = a1.firstErr; plain.firstErr == nil {
		plain.firstErr = a2.firstErr
	}

	m := map[string]metric{
		"pbio.encode_us":              {enc, "us"},
		"pbio.decode_us":              {dec, "us"},
		"client.call_us":              {p50us(&t.call), "us"},
		"client.self_us":              {p50us(&t.call) - p50us(&t.rt), "us"},
		"client.attempts_per_call":    {t.attempts.mean(), "count"},
		"transport.rt_us":             {p50us(&t.rt), "us"},
		"transport.self_us":           {p50us(&t.rt) - p50us(process), "us"},
		"transport.req_bytes":         {t.reqBytes.mean(), "B"},
		"transport.resp_bytes":        {t.respBytes.mean(), "B"},
		"server.process_us":           {p50us(process), "us"},
		"server.self_us":              {p50us(process) - p50us(handler), "us"},
		"server.faults_per_kcall":     {perK(float64(faults)), "1/kcall"},
		"server.shed_per_kcall":       {perK(float64(shed)), "1/kcall"},
		"handler.us":                  {p50us(&t.inner), "us"},
		"bufpool.hit_ratio":           {ratio(delta("soapbinq_pool_buffer_hits_total"), delta("soapbinq_pool_buffer_gets_total")), "ratio"},
		"pbio.slab_hit_ratio":         {ratio(delta("soapbinq_pool_slab_hits_total"), delta("soapbinq_pool_slab_gets_total")), "ratio"},
		"quality.mw_self_us":          {0, "us"},
		"quality.switches_per_kcall":  {perK(delta("soapbinq_quality_degradations_total") + delta("soapbinq_quality_restores_total")), "1/kcall"},
		"quality.frame_yield":         {ratio(frames, 4*float64(quality)), "ratio"},
		"quality.estimate_ms_p50":     {t.estimate.quantile(0.5) / 1e6, "ms"},
		"netem.link_ms":               {t.link.quantile(0.5) / 1e6, "ms"},
		"front.process_us":            {p50us(&t.front), "us"},
		"front.hop_us":                {0, "us"},
		"front.failovers_per_kcall":   {perK(delta("soapbinq_front_failovers_total")), "1/kcall"},
		"front.forward_yield":         {ratio(delta("soapbinq_front_requests_total"), delta("soapbinq_front_backend_requests_total")), "ratio"},
		"front.imbalance":             {0, "ratio"},
		"runtime.gc_cycles_per_kcall": {perK(float64(win.rt.gcCycles)), "1/kcall"},
		"runtime.gc_cpu_frac":         {win.rt.gcCPUFrac, "frac"},
		"runtime.sched_wait_p90_us":   {float64(win.rt.schedWaitP90) / 1e3, "us"},
		"trace.calls_per_s_delta":     {win.callsPerSec() - plain.callsPerSec(), "1/s"},
		"trace.cpu_us_per_call_delta": {win.cpuPerCallUS() - plain.cpuPerCallUS(), "us"},
	}
	for k := 1; k <= 4; k++ {
		m["quality.type_share.Batch"+strconv.Itoa(k)] = metric{ratio(float64(win.frames[k]), float64(quality)), "ratio"}
	}
	if t.outer.count() > 0 {
		m["quality.mw_self_us"] = metric{p50us(&t.outer) - p50us(&t.inner), "us"}
	}
	if t.front.count() > 0 {
		m["front.hop_us"] = metric{p50us(&t.front) - p50us(&t.process), "us"}
		m["front.imbalance"] = metric{maxOverMean(handled), "ratio"}
	}

	fmt.Fprintf(out, "workload %s seed %d traced: %d calls in %.3fs, %d failed; plain: %d calls in %.3fs, %d failed\n",
		w.name, seed, win.calls, win.elapsed.Seconds(), win.failed, plain.calls, plain.elapsed.Seconds(), plain.failed)
	fmt.Fprintf(out, "tracing overhead: calls_per_s %.1f traced vs %.1f plain; cpu_us_per_call %.2f traced vs %.2f plain\n",
		win.callsPerSec(), plain.callsPerSec(), win.cpuPerCallUS(), plain.cpuPerCallUS())
	printMetrics(out, m)
	correct := win.failed+plain.failed == 0
	for _, e := range []error{win.firstErr, plain.firstErr, a1.checkErr, b.checkErr, a2.checkErr} {
		if e != nil {
			fmt.Fprintf(out, "failure: %v\n", e)
		}
	}
	for _, e := range []error{a1.checkErr, b.checkErr, a2.checkErr} {
		correct = correct && e == nil
	}
	return result{
		Correct:   correct,
		Attempted: win.calls + plain.calls,
		Failed:    win.failed + plain.failed,
		Metrics:   m,
	}, nil
}

// layerWindow is one window of a traced run with the counters read
// around it. Plain and traced windows take the same path.
type layerWindow struct {
	window
	obs0, obs1    map[string]float64
	before, after []core.ServerStats
	checkErr      error
	payloads      []idl.Value
}

// tracedWindow builds a rig (traced when t is non-nil), measures it until
// stop, and closes it.
func tracedWindow(ctx context.Context, w workload, seed uint64, t *tracer, stop func(c, n int) bool) (layerWindow, error) {
	r, _, err := setup(ctx, w, seed, t)
	if err != nil {
		return layerWindow{}, err
	}
	defer r.close()
	if t != nil {
		for _, h := range t.hists() {
			h.reset() // drop what the warm-up recorded
		}
	}
	lw := layerWindow{before: serverStats(r), payloads: r.payloads()}
	if lw.obs0, err = obsCounters(); err != nil {
		return layerWindow{}, err
	}
	lw.window = measure(ctx, w, r, stop)
	if lw.obs1, err = obsCounters(); err != nil {
		return layerWindow{}, err
	}
	lw.after = serverStats(r)
	lw.checkErr = checkState(r)
	return lw, nil
}

func (t *tracer) hists() []*hist {
	return []*hist{&t.call, &t.rt, &t.process, &t.outer, &t.inner, &t.front, &t.estimate, &t.link, &t.attempts, &t.reqBytes, &t.respBytes}
}

func serverStats(r rig) []core.ServerStats {
	srvs := r.servers()
	out := make([]core.ServerStats, len(srvs))
	for i, s := range srvs {
		out[i] = s.Stats()
	}
	return out
}

func maxOverMean(xs []float64) float64 {
	var max, sum float64
	for _, x := range xs {
		sum += x
		if x > max {
			max = x
		}
	}
	return ratio(max, sum/float64(len(xs)))
}

// Command perfbench is the repository's end-to-end benchmark. It runs one
// of four closed-loop workloads in-process on loopback against the real
// packages, checks every response, and prints its metrics; the last line
// of its output is one JSON object.
//
//	perfbench --workload mux_small --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 prints the
// per-layer metrics, timed by decorators around each layer's public
// interface, and the tracing overhead. NOTES.md records why each workload
// and metric is there.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// setupReps is how many times a plain run builds and warms its rig;
// setup_s is their median, and the last rig is the one measured.
const setupReps = 9

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: mux_small, codec_bulk, quality_adsl or front_small")
	seed := fs.Uint64("seed", 1, "seed for the generated inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(ctx, w, *seed, dur, stdout)
	} else {
		res, err = runPlain(ctx, w, *seed, dur, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// setup builds and warms w's rig. It is everything before the first
// timed call: seeded input generation, listeners, dials, PBIO format
// registration and warm-up calls.
func setup(ctx context.Context, w workload, seed uint64, t *tracer) (rig, time.Duration, error) {
	runtime.GC() // every setup starts from a collected heap
	start := time.Now()
	r, err := w.build(seed, t)
	if err != nil {
		return nil, 0, err
	}
	warm := drive(ctx, w, r, func(_, n int) bool { return n >= w.warm })
	if warm.failed > 0 {
		r.close()
		return nil, 0, fmt.Errorf("warm-up: %d of %d calls failed: %w", warm.failed, warm.calls, warm.firstErr)
	}
	return r, time.Since(start), nil
}

// tally is what the callers of one window report.
type tally struct {
	calls, failed int64
	firstErr      error
	// lat holds the response time of each verified call, ns, per payload
	// shape: codec_bulk's two shapes take different times, and a
	// percentile of their mixture would sit on the gap between them.
	// The response time is the call's wall time plus, where the rig
	// models one, its virtual link round trip.
	lat [2]*hist
	// emulated is what the calls would take on an emulated workload's
	// modeled link: wall time, virtual link time and virtual think time.
	emulated time.Duration

	// Over every call, or over caller 0's first w.prefix calls where the
	// workload sets one (see workload.prefix).
	counted   int64
	wire      int64
	delivered float64
	inBand    int64
	links     []time.Duration

	frames [5]int64 // verified quality_adsl calls by frames delivered
}

// drive runs w's callers against r until stop says a caller is done.
// stop sees the caller and how many calls it has made, and is only asked
// at the workload's cycle boundaries.
func drive(ctx context.Context, w workload, r rig, stop func(c, n int) bool) tally {
	parts := make([]tally, w.callers)
	lat := [2]*hist{new(hist), new(hist)}
	var wg sync.WaitGroup
	for c := 0; c < w.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			if w.prefix > 0 && c == 0 {
				p.links = make([]time.Duration, 0, w.prefix)
			}
			for n := 0; n%w.cycle != 0 || !stop(c, n); n++ {
				start := time.Now()
				o, err := r.call(ctx, c)
				d := time.Since(start)
				p.calls++
				counted := w.prefix == 0 || (c == 0 && n < w.prefix)
				if counted {
					p.counted++
				}
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
					continue
				}
				resp := d + o.link
				lat[o.shape].recordDur(resp)
				p.emulated += resp + w.think
				p.frames[o.frames]++
				if !counted {
					continue
				}
				p.wire += int64(o.wire)
				p.delivered += o.delivered
				in := d
				if o.link > 0 {
					in = o.link
					p.links = append(p.links, o.link)
				}
				if in < w.band {
					p.inBand++
				}
			}
		}(c)
	}
	wg.Wait()
	total := tally{lat: lat}
	for _, p := range parts {
		total.calls += p.calls
		total.failed += p.failed
		if total.firstErr == nil {
			total.firstErr = p.firstErr
		}
		total.counted += p.counted
		total.emulated += p.emulated
		total.wire += p.wire
		total.delivered += p.delivered
		total.inBand += p.inBand
		total.links = append(total.links, p.links...)
		for i := range p.frames {
			total.frames[i] += p.frames[i]
		}
	}
	return total
}

// window is one measured stretch of a rig's traffic.
type window struct {
	tally
	elapsed    time.Duration
	cpu        time.Duration
	allocs     uint64
	allocBytes uint64
	maxRSSKB   int64
	rt         runtimeDelta
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func maxRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// forAtLeast stops a window once dur has passed and caller 0 has made
// its w.prefix calls. The clock starts at the first call.
func forAtLeast(w workload, dur time.Duration) func(c, n int) bool {
	var deadline time.Time
	var once sync.Once
	return func(c, n int) bool {
		once.Do(func() { deadline = time.Now().Add(dur) })
		if w.prefix > 0 && c == 0 && n < w.prefix {
			return false
		}
		return !time.Now().Before(deadline)
	}
}

// measure drives r until stop says every caller is done.
func measure(ctx context.Context, w workload, r rig, stop func(c, n int) bool) window {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rt0 := readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	t := drive(ctx, w, r, stop)
	elapsed := time.Since(start)
	cpu := cpuTime() - cpu0
	rt := readRuntime().since(rt0)
	runtime.ReadMemStats(&ms1)
	return window{
		tally:      t,
		elapsed:    elapsed,
		cpu:        cpu,
		allocs:     ms1.Mallocs - ms0.Mallocs,
		allocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
		maxRSSKB:   maxRSSKB(),
		rt:         rt,
	}
}

// latencyUS is the q-quantile of call wall time in µs, averaged over the
// payload shapes the window saw.
func (t tally) latencyUS(q float64) float64 {
	var sum float64
	var n int
	for _, h := range t.lat {
		if h.count() > 0 {
			sum += h.quantile(q)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) / 1e3
}

// callsPerSec is verified calls per wall-clock second.
func (win window) callsPerSec() float64 {
	return float64(win.calls-win.failed) / win.elapsed.Seconds()
}

// userCallsPerSec is calls_per_s as the workload's user sees it: per
// wall-clock second, or per emulated second on a workload with virtual
// think time, whose one caller would wait out the modeled link.
func (win window) userCallsPerSec(w workload) float64 {
	if w.think > 0 {
		return float64(win.calls-win.failed) / win.emulated.Seconds()
	}
	return win.callsPerSec()
}

func (win window) cpuPerCallUS() float64 {
	return win.cpu.Seconds() * 1e6 / float64(win.calls)
}

func runPlain(ctx context.Context, w workload, seed uint64, dur time.Duration, out io.Writer) (result, error) {
	var r rig
	setups := make([]float64, 0, setupReps)
	for k := 0; k < setupReps; k++ {
		if r != nil {
			r.close()
		}
		var d time.Duration
		var err error
		if r, d, err = setup(ctx, w, seed, nil); err != nil {
			return result{}, err
		}
		setups = append(setups, d.Seconds())
	}
	defer r.close()
	win := measure(ctx, w, r, forAtLeast(w, dur))
	checkErr := checkState(r)

	m := map[string]metric{
		"setup_s":              {median(setups), "s"},
		"calls_per_s":          {win.userCallsPerSec(w), "1/s"},
		"latency_p90_us":       {win.latencyUS(0.90), "us"},
		"cpu_us_per_call":      {win.cpuPerCallUS(), "us"},
		"allocs_per_call":      {float64(win.allocs) / float64(win.calls), "count"},
		"alloc_bytes_per_call": {float64(win.allocBytes) / float64(win.calls), "B"},
		"wire_bytes_per_call":  {float64(win.wire) / float64(win.counted), "B"},
		"max_rss_mb":           {float64(win.maxRSSKB) / 1024, "MB"},
		"in_band_frac":         {float64(win.inBand) / float64(win.counted), "frac"},
		"fidelity":             {win.delivered / float64(win.counted), "frac"},
	}
	fmt.Fprintf(out, "workload %s seed %d: %d calls in %.3fs by %d callers, %d failed (fail_ratio %g)\n",
		w.name, seed, win.calls, win.elapsed.Seconds(), w.callers, win.failed, float64(win.failed)/float64(win.calls))
	fmt.Fprintf(out, "response time over %d verified calls: p50 %.2fus (not gated, see NOTES.md); setup runs (s): %v\n",
		win.lat[0].count()+win.lat[1].count(), win.latencyUS(0.50), setups)
	if w.think > 0 {
		fmt.Fprintf(out, "emulated clock (wall + virtual link + think): %.3fs; wall clock: %.1f calls/s\n",
			win.emulated.Seconds(), win.callsPerSec())
	}
	if len(win.links) > 0 {
		fmt.Fprintf(out, "virtual link over the first %d calls: link_rtt_p50_ms %v, link_rtt_p99_ms %v\n",
			len(win.links), durPercentile(win.links, 0.50), durPercentile(win.links, 0.99))
	}
	if w.prefix > 0 {
		fmt.Fprintf(out, "wire_bytes_per_call, in_band_frac and fidelity cover the first %d calls\n", w.prefix)
	}
	printMetrics(out, m)
	if win.firstErr != nil {
		fmt.Fprintf(out, "first failure: %v\n", win.firstErr)
	}
	if checkErr != nil {
		fmt.Fprintf(out, "state check failed: %v\n", checkErr)
	}
	return result{
		Correct:   win.failed == 0 && checkErr == nil,
		Attempted: win.calls,
		Failed:    win.failed,
		Metrics:   m,
	}, nil
}

// checkState verifies what a rig should look like after a clean window:
// every front backend still active behind a closed breaker.
func checkState(r rig) error {
	f, ok := r.(*frontRig)
	if !ok {
		return nil
	}
	for _, b := range f.front.DebugSnapshot().Backends {
		if b.State != "active" || b.Breaker != "closed" {
			return fmt.Errorf("backend %s is %s with breaker %s", b.Name, b.State, b.Breaker)
		}
	}
	return nil
}

func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// durPercentile is the nearest-rank percentile in milliseconds.
func durPercentile(ds []time.Duration, q float64) float64 {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i]) / float64(time.Millisecond)
}

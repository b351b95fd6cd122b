package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http/httptest"
	"strconv"
	"time"

	"soapbinq/internal/bench"
	"soapbinq/internal/core"
	"soapbinq/internal/front"
	"soapbinq/internal/idl"
	"soapbinq/internal/moldyn"
	"soapbinq/internal/netem"
	"soapbinq/internal/pbio"
	"soapbinq/internal/quality"
	"soapbinq/internal/soap"
	shapes "soapbinq/internal/workload"
)

// workload is one closed-loop traffic mix. Each caller blocks on its
// reply before sending the next request, as the paper's clients do.
type workload struct {
	name    string
	callers int
	// cycle is how many calls of one caller form a unit; a caller only
	// stops at a unit boundary, so every run averages whole units.
	cycle int
	// band is the response-time limit behind in_band_frac: virtual link
	// time where the rig reports one, wall time per call otherwise.
	band time.Duration
	// prefix, when set, is how many calls of caller 0 the deterministic
	// quality metrics are taken over; the run lasts at least that long.
	prefix int
	// think is virtual think time after each call. A workload with think
	// time runs on an emulated clock: see tally.emulated.
	think time.Duration
	warm  int // warm-up calls per caller, counted in setup
	build func(seed uint64, t *tracer) (rig, error)
}

// outcome is what one verified call reports beyond its wall time.
type outcome struct {
	wire      int           // request plus response envelope bytes
	delivered float64       // share of the requested data delivered
	link      time.Duration // virtual link round trip; 0 where none is modeled
	frames    int           // moldyn frames delivered; 0 off quality_adsl
	shape     int           // which of codec_bulk's two payload shapes; 0 elsewhere
}

// rig is a built workload: servers listening, clients dialed, inputs
// generated from the seed.
type rig interface {
	// call makes caller c's next call and checks its response. A
	// non-nil error is a failed call: an error or a wrong answer.
	call(ctx context.Context, c int) (outcome, error)
	// payloads are the values the workload moves, for the traced run's
	// direct codec timings.
	payloads() []idl.Value
	// servers are the core.Servers answering the calls.
	servers() []*core.Server
	close()
}

var workloads = []workload{
	{name: "mux_small", callers: 2, cycle: 1, band: time.Millisecond, warm: 300, build: buildMuxSmall},
	{name: "codec_bulk", callers: 1, cycle: 2, band: 20 * time.Millisecond, warm: 20, build: buildCodecBulk},
	{name: "quality_adsl", callers: 1, cycle: 1, band: 260 * time.Millisecond, prefix: 6000, think: thinkTime, warm: quietCalls, build: buildQualityADSL},
	{name: "front_small", callers: 2, cycle: 1, band: 2 * time.Millisecond, warm: 300, build: buildFrontSmall},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

func newCodec(fs pbio.Server) *pbio.Codec { return pbio.NewCodec(pbio.NewRegistry(fs)) }

func seededInts(r *rand.Rand, n int) idl.Value {
	elems := make([]idl.Value, n)
	for i := range elems {
		elems[i] = idl.IntV(r.Int64N(1 << 31))
	}
	return idl.Value{Type: shapes.IntArrayType(), List: elems}
}

func echoHandler(_ *core.CallCtx, params []soap.Param) (idl.Value, error) {
	return params[0].Value, nil
}

// checkEcho verifies an echo response and releases it.
func checkEcho(resp *core.Response, sent idl.Value) (outcome, error) {
	defer resp.Release()
	if !resp.Value.Equal(sent) {
		return outcome{}, errors.New("echo result differs from its input")
	}
	return outcome{wire: resp.Stats.RequestBytes + resp.Stats.ResponseBytes, delivered: 1}, nil
}

// ---- mux_small: fixed per-call cost over tcpmux ----

type muxRig struct {
	t      *tracer
	client *core.Client
	pool   *core.TCPPoolTransport
	ln     *core.TCPListener
	srv    *core.Server
	inputs []idl.Value
	next   [2]int
}

var arraySpec = core.MustServiceSpec("Echo",
	&core.OpDef{
		Name:   "echoArray",
		Params: []soap.ParamSpec{{Name: "v", Type: shapes.IntArrayType()}},
		Result: shapes.IntArrayType(),
	},
	&core.OpDef{
		Name:   "echoStruct",
		Params: []soap.ParamSpec{{Name: "v", Type: nestedType}},
		Result: nestedType,
	},
)

var nestedType = shapes.NestedStructType(6)

func buildMuxSmall(seed uint64, t *tracer) (rig, error) {
	r := newRand(seed, 1)
	inputs := make([]idl.Value, 64)
	for i := range inputs {
		inputs[i] = seededInts(r, 64)
	}
	fs := pbio.NewMemServer()
	srv := core.NewServer(arraySpec, newCodec(fs))
	srv.MustHandle("echoArray", t.handler(echoHandler, innerHist))
	ln, err := core.ServeTCP(t.processor(srv, processHist), "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	pool := core.NewTCPPoolTransport(ln.Addr(), 2)
	client := core.NewClient(arraySpec, t.transport(pool), newCodec(fs), core.WireBinary)
	return &muxRig{t: t, client: client, pool: pool, ln: ln, srv: srv, inputs: inputs, next: [2]int{0, 32}}, nil
}

func (m *muxRig) call(ctx context.Context, c int) (outcome, error) {
	v := m.inputs[m.next[c]%len(m.inputs)]
	m.next[c]++
	start := time.Now()
	resp, err := m.client.Call(ctx, "echoArray", nil, soap.Param{Name: "v", Value: v})
	if err != nil {
		return outcome{}, err
	}
	m.t.observeCall(time.Since(start), resp.Stats.Attempts)
	return checkEcho(resp, v)
}

func (m *muxRig) payloads() []idl.Value   { return m.inputs[:1] }
func (m *muxRig) servers() []*core.Server { return []*core.Server{m.srv} }
func (m *muxRig) close() {
	m.pool.Close()
	m.ln.Close()
}

// ---- codec_bulk: the PBIO codec and envelope, no transport ----

type bulkRig struct {
	t      *tracer
	client *core.Client
	srv    *core.Server
	inputs [2]idl.Value
	ops    [2]string
	next   int
}

// seededNested fills the depth-6 business type with seeded field values
// and items line items per level.
func seededNested(r *rand.Rand, t *idl.Type, items int) idl.Value {
	itemT := t.Fields[t.FieldIndex("items")].Type.Elem
	list := make([]idl.Value, items)
	for i := range list {
		list[i] = idl.StructV(itemT,
			idl.StringV("SKU-"+strconv.FormatInt(r.Int64N(1e6), 10)),
			idl.IntV(r.Int64N(1000)),
			idl.FloatV(r.Float64()*100),
		)
	}
	fields := []idl.Value{
		idl.IntV(r.Int64N(1 << 31)),
		idl.StringV("order-" + strconv.FormatInt(r.Int64N(1e6), 10)),
		idl.FloatV(r.Float64() * 1000),
		idl.CharV(byte('A' + r.IntN(26))),
		{Type: idl.List(itemT), List: list},
	}
	if ci := t.FieldIndex("child"); ci >= 0 {
		fields = append(fields, seededNested(r, t.Fields[ci].Type, items))
	}
	return idl.StructV(t, fields...)
}

func buildCodecBulk(seed uint64, t *tracer) (rig, error) {
	r := newRand(seed, 2)
	fs := pbio.NewMemServer()
	srv := core.NewServer(arraySpec, newCodec(fs))
	srv.MustHandle("echoArray", t.handler(echoHandler, innerHist))
	srv.MustHandle("echoStruct", t.handler(echoHandler, innerHist))
	client := core.NewClient(arraySpec, t.transport(&core.Loopback{Server: srv}), newCodec(fs), core.WireBinary)
	return &bulkRig{
		t:      t,
		client: client,
		srv:    srv,
		inputs: [2]idl.Value{seededInts(r, 8192), seededNested(r, nestedType, 16)},
		ops:    [2]string{"echoArray", "echoStruct"},
	}, nil
}

func (b *bulkRig) call(ctx context.Context, _ int) (outcome, error) {
	k := b.next % 2
	b.next++
	start := time.Now()
	resp, err := b.client.Call(ctx, b.ops[k], nil, soap.Param{Name: "v", Value: b.inputs[k]})
	if err != nil {
		return outcome{}, err
	}
	b.t.observeCall(time.Since(start), resp.Stats.Attempts)
	o, err := checkEcho(resp, b.inputs[k])
	o.shape = k
	return o, err
}

func (b *bulkRig) payloads() []idl.Value   { return b.inputs[:] }
func (b *bulkRig) servers() []*core.Server { return []*core.Server{b.srv} }
func (b *bulkRig) close()                  {}

// ---- quality_adsl: the quality loop over a virtual ADSL link ----

// Cross-traffic phases are 10–40 calls long at 0–250 kbit/s. netem
// charges cross traffic against both directions, so the 256 kbit/s
// uplink is the tight one: over this range a client pinned to Batch4
// leaves the 260 ms band on about a quarter of its calls, and one pinned
// to Batch1 stays in band on about 97% of them at a quarter of the
// fidelity. The adaptive policy sits between them.
const (
	phaseMinCalls = 10
	phaseMaxCalls = 40
	maxCrossBps   = 0.25e6
	thinkTime     = 10 * time.Millisecond

	// quietCalls opens the schedule on an idle link. They are the
	// warm-up, so setup does the same work whatever the seed, and the
	// seeded phases start with the measured window.
	quietCalls = 2
)

type qualityRig struct {
	t      *tracer
	qc     *quality.Client
	sim    *netem.Sim
	ts     *httptest.Server
	srv    *core.Server
	sched  *rand.Rand
	left   int // calls left in the current cross-traffic phase
	from   int64
	sample idl.Value
}

func buildQualityADSL(seed uint64, t *tracer) (rig, error) {
	r, err := buildQuality(seed, t, nil)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// buildQuality builds the quality_adsl rig. A non-nil wrap wraps the
// quality middleware, so a test can pin what it reads from the wall clock.
func buildQuality(seed uint64, t *tracer, wrap func(core.HandlerFunc) core.HandlerFunc) (*qualityRig, error) {
	policy, err := quality.ParsePolicyString(bench.Fig9PolicyText, moldyn.Types(), moldyn.Handlers())
	if err != nil {
		return nil, err
	}
	fs := pbio.NewMemServer()
	srv := core.NewServer(moldyn.Spec(), newCodec(fs))
	md := moldyn.NewSimulator(moldyn.DefaultAtoms, seed)
	h := quality.Middleware(policy, nil, t.handler(moldyn.NewHandler(md), innerHist))
	if wrap != nil {
		h = wrap(h)
	}
	if err := srv.Handle("getBonds", t.handler(h, outerHist)); err != nil {
		return nil, err
	}
	ts := httptest.NewServer(t.httpHandler(srv))
	// A nil Client keeps the shared default HTTP client users get.
	sim := netem.NewSim(netem.ADSL, &core.HTTPTransport{URL: ts.URL})
	inner := core.NewClient(moldyn.Spec(), t.transport(sim), newCodec(fs), core.WireBinary)
	return &qualityRig{
		t:      t,
		qc:     quality.NewClient(inner, policy),
		sim:    sim,
		ts:     ts,
		srv:    srv,
		sched:  newRand(seed, 3),
		left:   quietCalls,
		sample: moldyn.BatchValue(md, moldyn.Batch4Type, 0, 4),
	}, nil
}

func (q *qualityRig) call(ctx context.Context, _ int) (outcome, error) {
	if q.left == 0 {
		q.left = phaseMinCalls + q.sched.IntN(phaseMaxCalls-phaseMinCalls+1)
		q.sim.SetCrossRate(q.sched.Float64() * maxCrossBps)
	}
	q.left--
	from := q.from
	start := time.Now()
	resp, err := q.qc.Call(ctx, "getBonds", nil, soap.Param{Name: "from", Value: idl.IntV(from)})
	q.sim.Advance(thinkTime)
	if err != nil {
		return outcome{}, err
	}
	q.t.observeCall(time.Since(start), resp.Stats.Attempts)
	q.t.observeQuality(q.qc.Estimator.Estimate(), resp.Stats.RoundTripTime)
	frames, err := checkBatch(resp, from)
	if err != nil {
		return outcome{}, err
	}
	q.from += int64(frames)
	return outcome{
		wire:      resp.Stats.RequestBytes + resp.Stats.ResponseBytes,
		delivered: float64(frames) / 4,
		link:      resp.Stats.RoundTripTime,
		frames:    frames,
	}, nil
}

// checkBatch verifies a moldyn response: it starts at the requested
// step, carries the frame count of the type it names, holds consecutive
// steps, and was padded back to Batch4 for the application.
func checkBatch(resp *core.Response, from int64) (int, error) {
	name := resp.Header[core.MsgTypeHeader]
	if name == "" {
		name = "Batch4"
	}
	want, err := strconv.Atoi(name[len("Batch"):])
	if err != nil || want < 1 || want > 4 {
		return 0, fmt.Errorf("response names message type %q", name)
	}
	if !resp.Value.Type.Equal(moldyn.Batch4Type) {
		return 0, fmt.Errorf("response type %s was not padded to Batch4", resp.Value.Type)
	}
	if got, _ := resp.Value.Field("from"); got.Int != from {
		return 0, fmt.Errorf("response starts at step %d, asked for %d", got.Int, from)
	}
	frames, _ := resp.Value.Field("frames")
	if len(frames.List) != want {
		return 0, fmt.Errorf("%s response carries %d frames", name, len(frames.List))
	}
	for i, f := range frames.List {
		if step, _ := f.Field("step"); step.Int != from+int64(i) {
			return 0, fmt.Errorf("frame %d is step %d, want %d", i, step.Int, from+int64(i))
		}
	}
	return want, nil
}

func (q *qualityRig) payloads() []idl.Value   { return []idl.Value{q.sample} }
func (q *qualityRig) servers() []*core.Server { return []*core.Server{q.srv} }
func (q *qualityRig) close()                  { q.ts.Close() }

// ---- front_small: the soapfront routing hop ----

const frontRecords = 64

var recordType = idl.Struct("Record",
	idl.F("id", idl.Int()),
	idl.F("vals", shapes.IntArrayType()),
)

var frontSpec = core.MustServiceSpec("Records",
	&core.OpDef{
		Name:       "get",
		Params:     []soap.ParamSpec{{Name: "id", Type: idl.Int()}},
		Result:     recordType,
		Idempotent: true,
	},
)

type frontRig struct {
	t        *tracer
	client   *core.Client
	pool     *core.TCPPoolTransport
	front    *front.Front
	frontLn  *core.TCPListener
	backends []*core.Server
	lns      []*core.TCPListener
	table    []idl.Value
	ids      [2][]int64
	next     [2]int
}

func buildFrontSmall(seed uint64, t *tracer) (rig, error) {
	r := newRand(seed, 4)
	table := make([]idl.Value, frontRecords)
	for i := range table {
		table[i] = seededInts(r, 48)
	}
	var ids [2][]int64
	for c := range ids {
		ids[c] = make([]int64, 1024)
		for i := range ids[c] {
			ids[c][i] = r.Int64N(1 << 40)
		}
	}
	get := func(_ *core.CallCtx, params []soap.Param) (idl.Value, error) {
		id := params[0].Value.Int
		return idl.StructV(recordType, idl.IntV(id), table[id%frontRecords]), nil
	}

	fs := pbio.NewMemServer()
	f := &frontRig{t: t, table: table, ids: ids}
	f.front = front.New(front.Config{Spec: frontSpec, PoolConns: 2})
	for i := 0; i < 2; i++ {
		srv := core.NewServer(frontSpec, newCodec(fs))
		srv.MustHandle("get", t.handler(get, innerHist))
		ln, err := core.ServeTCP(t.processor(srv, processHist), "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		f.backends = append(f.backends, srv)
		f.lns = append(f.lns, ln)
		if err := f.front.Join("b"+strconv.Itoa(i), ln.Addr()); err != nil {
			f.close()
			return nil, err
		}
	}
	f.front.Start()
	ln, err := core.ServeTCP(t.processor(f.front, frontHist), "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.frontLn = ln
	f.pool = core.NewTCPPoolTransport(ln.Addr(), 2)
	f.client = core.NewClient(frontSpec, t.transport(f.pool), newCodec(fs), core.WireBinary)
	return f, nil
}

func (f *frontRig) call(ctx context.Context, c int) (outcome, error) {
	id := f.ids[c][f.next[c]%len(f.ids[c])]
	f.next[c]++
	start := time.Now()
	resp, err := f.client.Call(ctx, "get", nil, soap.Param{Name: "id", Value: idl.IntV(id)})
	if err != nil {
		return outcome{}, err
	}
	f.t.observeCall(time.Since(start), resp.Stats.Attempts)
	defer resp.Release()
	if got, _ := resp.Value.Field("id"); got.Int != id {
		return outcome{}, fmt.Errorf("record %d answered request %d", got.Int, id)
	}
	if vals, _ := resp.Value.Field("vals"); !vals.Equal(f.table[id%frontRecords]) {
		return outcome{}, fmt.Errorf("record %d carries the wrong values", id)
	}
	return outcome{wire: resp.Stats.RequestBytes + resp.Stats.ResponseBytes, delivered: 1}, nil
}

func (f *frontRig) payloads() []idl.Value {
	return []idl.Value{idl.StructV(recordType, idl.IntV(1), f.table[1])}
}

func (f *frontRig) servers() []*core.Server { return f.backends }

func (f *frontRig) close() {
	if f.pool != nil {
		f.pool.Close()
	}
	if f.frontLn != nil {
		f.frontLn.Close()
	}
	f.front.Close()
	for _, ln := range f.lns {
		ln.Close()
	}
}

package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"cash/internal/codegen"
	"cash/internal/core"
	"cash/internal/minic"
	"cash/internal/obs"
	"cash/internal/serve"
	"cash/internal/srv"
	"cash/internal/store"
	"cash/internal/vm"
	"cash/internal/workload"
)

// replayOps is how many of a workload's seeded operations the traced
// replay runs; replayPairs is how many untraced/traced replay pairs
// are alternated to measure the tracing overhead.
const (
	replayOps   = 48
	replayPairs = 2
	// wireRate paces the replay's open-loop wire step.
	wireRate = 500.0
)

// suiteReplayOps is paper-suite's replay set: the Table 1 kernels and
// the network applications under the suite's three classic strategies,
// in a seeded order.
func suiteReplayOps(seed uint64) []request {
	ws := append(workload.Kernels(), workload.NetworkApps()...)
	progs := make([]program, len(ws))
	for i, w := range ws {
		progs[i] = program{key: "paper:" + w.Name, src: w.Source}
	}
	var ops []request
	for _, p := range progs {
		for _, m := range []string{"gcc", "bcc", "cash"} {
			ops = append(ops, request{Class: classCold, Key: p.key, Mode: m, src: p.src})
		}
	}
	rng := newRNG("paper-suite", seed)
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// opTimes are one replayed operation's per-call durations (ns).
type opTimes struct {
	lex, parse, check    int64
	compile              [5]int64 // CompileIR with 0..4 passes of the pipeline
	newM, firstRun, run  int64
	build                int64
	buildMiss, buildHit  int64
	newMachine           int64
	runMiss, runHit, rtt int64
	tokens, instrs       int
	frame                int64 // request plus reply bytes on the wire
}

// jobCounters records the obs counter delta of the workload's job and
// the layer figures derived from it.
func (rc *runCtx) jobCounters(d obs.Snapshot, simInstrs uint64, simWall time.Duration, ms0, ms1 *runtime.MemStats, ops int64) {
	rep := rc.rep
	c := d.Counters
	rep.Counters = c
	count := func(name string) { rep.set(name, float64(c[name]), "count") }
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	rep.set("vm.sim_mips", float64(simInstrs)/simWall.Seconds()/1e6, "Minstr/s")
	for _, n := range []string{"vm.sb.compiled", "vm.sb.entries", "vm.sb.deopts", "vm.sb.instrs_retired",
		"vm.faults.step_limit", "vm.snapshot.clones", "serve.cache.evictions", "serve.build.coalesced",
		"serve.admission.waits", "store.disk.hits", "store.disk.misses", "store.disk.writes", "srv.requests.shed"} {
		count(n)
	}
	hits, misses := c["serve.cache.hits"], c["serve.cache.misses"]
	rep.set("serve.cache.hit_ratio", ratio(hits, hits+misses), "ratio")
	machines := c["serve.pool.recycled"] + c["serve.pool.fresh"]
	rep.set("serve.cache.run_hit_ratio", ratio(c["serve.cache.run_hits"], c["serve.cache.run_hits"]+machines), "ratio")
	rep.set("serve.pool.recycled_ratio", ratio(c["serve.pool.recycled"], machines), "ratio")
	rep.set("runtime.alloc_bytes_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(ops), "bytes")
	rep.set("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, "ms")
}

// replayLayers is the traced run's second half: it replays ops through
// the public function of every layer, alternating untraced and traced
// replays, and reports per-layer times, self times and the tracing
// overhead.
func (rc *runCtx) replayLayers(ops []request) error {
	rep := rc.rep
	var (
		untraced, traced []int64
		roots            []int
		times            []opTimes
	)
	for pair := 0; pair < replayPairs; pair++ {
		for _, on := range []bool{false, true} {
			tr := newTracer(false)
			if on {
				tr = rc.tr
			}
			wall, root, ts, err := rc.replayOnce(tr, ops)
			if err != nil {
				return err
			}
			if on {
				traced = append(traced, wall)
				roots = append(roots, root)
				times = append(times, ts...)
			} else {
				untraced = append(untraced, wall)
			}
		}
	}

	med := func(f func(t opTimes) int64) float64 {
		v := make([]int64, len(times))
		for i, t := range times {
			v[i] = f(t)
		}
		return newDist(v).median()
	}
	rep.set("minic.lex_ns", med(func(t opTimes) int64 { return t.lex }), "ns")
	rep.set("minic.parse_ns", med(func(t opTimes) int64 { return t.parse }), "ns")
	rep.set("minic.check_ns", med(func(t opTimes) int64 { return t.check }), "ns")
	var toks, lexNS int64
	for _, t := range times {
		toks += int64(t.tokens)
		lexNS += t.lex
	}
	rep.set("minic.tokens_per_s", float64(toks)/(float64(lexNS)/1e9), "1/s")
	rep.set("codegen.compile_ns", med(func(t opTimes) int64 { return t.compile[0] }), "ns")
	for i, p := range allPasses {
		rep.set("codegen.pass."+p+"_ns", med(func(t opTimes) int64 { return t.compile[i+1] - t.compile[i] }), "ns")
	}
	rep.set("codegen.program_instrs", med(func(t opTimes) int64 { return int64(t.instrs) }), "count")
	rep.set("vm.new_ns", med(func(t opTimes) int64 { return t.newM }), "ns")
	rep.set("vm.first_run_ns", med(func(t opTimes) int64 { return t.firstRun }), "ns")
	rep.set("vm.run_ns", med(func(t opTimes) int64 { return t.run }), "ns")
	rep.set("core.build_ns", med(func(t opTimes) int64 { return t.build }), "ns")
	rep.set("serve.build_miss_ns", med(func(t opTimes) int64 { return t.buildMiss }), "ns")
	rep.set("serve.build_hit_ns", med(func(t opTimes) int64 { return t.buildHit }), "ns")
	rep.set("serve.new_machine_ns", med(func(t opTimes) int64 { return t.newMachine }), "ns")
	rep.set("serve.run_miss_ns", med(func(t opTimes) int64 { return t.runMiss }), "ns")
	rep.set("serve.run_hit_ns", med(func(t opTimes) int64 { return t.runHit }), "ns")
	rep.set("srv.roundtrip_ns", med(func(t opTimes) int64 { return t.rtt }), "ns")
	rep.set("srv.wire_overhead_ns", med(func(t opTimes) int64 { return t.rtt - t.buildHit - t.runHit }), "ns")
	rep.set("srv.frame_bytes", med(func(t opTimes) int64 { return t.frame }), "bytes")

	// Self times over every traced replay; layers plus the unattributed
	// remainder must add up to the traced wall time.
	byLayer := map[string]int64{}
	var unattr, wall int64
	for _, r := range roots {
		bl, u, w := rc.tr.selfTimes(r)
		for l, v := range bl {
			byLayer[l] += v
		}
		unattr += u
		wall += w
	}
	sum := unattr
	for _, l := range selfLayers {
		rep.set("self."+l+"_ms", ms(float64(byLayer[l])), "ms")
		sum += byLayer[l]
		delete(byLayer, l)
	}
	if len(byLayer) != 0 {
		return fmt.Errorf("replay spans in unexpected layers: %v", byLayer)
	}
	if sum != wall {
		return fmt.Errorf("self times sum to %d ns, traced wall is %d ns", sum, wall)
	}
	rep.set("self.unattributed_ms", ms(float64(unattr)), "ms")
	rep.set("trace.wall_ms", ms(float64(wall)), "ms")
	u, t := newDist(untraced).median(), newDist(traced).median()
	rep.set("trace.overhead_ms", ms(t-u), "ms")
	rep.set("trace.overhead_pct", (t-u)/u*100, "%")
	rep.note("trace.overhead_ms", ms(t-u), "ms", fmt.Sprintf("median traced replay %.3f ms - median untraced %.3f ms (%d pairs of %d ops)", ms(t), ms(u), replayPairs, len(ops)))
	rep.addSelfTime(rc.tr, roots[len(roots)-1], "last traced replay")
	return nil
}

// addSelfTime appends the self-time table of one root span.
func (r *report) addSelfTime(tr *tracer, root int, label string) {
	byLayer, unattr, wall := tr.selfTimes(root)
	layers := append([]string{"bench"}, selfLayers...)
	for _, l := range layers {
		if v, ok := byLayer[l]; ok {
			r.SelfTime = append(r.SelfTime, selfRow{Root: label, Layer: l, MS: ms(float64(v))})
		}
	}
	r.SelfTime = append(r.SelfTime,
		selfRow{Root: label, Layer: "unattributed", MS: ms(float64(unattr))},
		selfRow{Root: label, Layer: "traced wall", MS: ms(float64(wall))})
}

// replayOnce runs every op once on a fresh default engine with an
// in-process server in front of it, then populates a store with the
// ops' artifacts and reopens it. It returns the wall time, the root
// span id (0 when untraced) and the per-op times.
func (rc *runCtx) replayOnce(tr *tracer, ops []request) (int64, int, []opTimes, error) {
	ctx := context.Background()
	eng := serve.NewEngine(serve.EngineConfig{})
	defer eng.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, nil, err
	}
	s := srv.New(srv.Config{Engine: eng})
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	defer func() {
		s.Close()
		<-served
	}()
	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return 0, 0, nil, err
	}
	wire := &countingConn{Conn: nc}
	client := srv.NewClient(wire)
	defer client.Close()
	dir, err := os.MkdirTemp(rc.tmp, "replay-store-")
	if err != nil {
		return 0, 0, nil, err
	}
	defer os.RemoveAll(dir)

	start := time.Now()
	root := tr.begin(0, "", "replay", -1)
	times := make([]opTimes, len(ops))
	for i, op := range ops {
		if times[i], err = rc.replayOp(ctx, tr, root, i, op, eng, client, wire); err != nil {
			return 0, 0, nil, err
		}
	}

	// Store layer: write the ops' artifacts through an engine rooted at a
	// store directory, then reopen the populated directory.
	sid := tr.begin(root, "serve", "serve.Open/store", -1)
	seng, err := serve.Open(serve.EngineConfig{StoreDir: dir})
	tr.end(sid)
	if err != nil {
		return 0, 0, nil, err
	}
	for i, op := range ops {
		id := tr.begin(root, "serve", "serve.BuildContext/store", i)
		_, err := seng.BuildContext(ctx, op.src, core.Mode(op.Mode), core.Options{Passes: op.Passes, StepLimit: op.StepLimit})
		tr.end(id)
		if err != nil {
			seng.Close()
			return 0, 0, nil, err
		}
	}
	if err := seng.Close(); err != nil {
		return 0, 0, nil, err
	}
	id := tr.begin(root, "store", "store.Open", -1)
	d, err := store.Open(dir, store.Options{})
	tr.end(id)
	if err != nil {
		return 0, 0, nil, err
	}
	storeBytes := d.Bytes()
	d.Close()
	tr.end(root)
	wall := int64(time.Since(start))
	if tr.on {
		rc.setOnce("store.open_s", float64(tr.durations("store.Open")[0])/1e9, "s")
		rc.setOnce("store.bytes", float64(storeBytes), "bytes")
	}

	// Wire pacing: resend the ops (now run-cache hits) on an open-loop
	// schedule and record how late the generator ran.
	var lagNS []int64
	t0 := time.Now()
	for k, op := range ops {
		due := t0.Add(time.Duration(float64(k) / wireRate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lagNS = append(lagNS, int64(time.Since(due)))
		if _, err := client.Run(ctx, runRequest(op)); err != nil && op.Class != classProbe {
			return 0, 0, nil, err
		}
	}
	if tr.on {
		rc.setOnce("loadgen.lag_ms", ms(newDist(lagNS).rank(0.99)), "ms")
	}
	return wall, root, times, nil
}

// setOnce sets a metric unless an earlier measurement already did.
func (rc *runCtx) setOnce(name string, v float64, unit string) {
	if _, ok := rc.rep.Metrics[name]; !ok {
		rc.rep.set(name, v, unit)
	}
}

// replayOp replays one operation through minic, codegen, vm, core,
// serve and srv, one span per public call, and checks each outcome.
func (rc *runCtx) replayOp(ctx context.Context, tr *tracer, parent, i int, op request, eng *serve.Engine, client *srv.Client, wire *countingConn) (opTimes, error) {
	var t opTimes
	opID := tr.begin(parent, "", "op", i)
	defer tr.end(opID)
	call := func(layer, name string, f func() error) (int64, error) {
		id := tr.begin(opID, layer, name, i)
		err := f()
		return tr.end(id), err
	}
	fail := func(stage string, err error) (opTimes, error) {
		return t, fmt.Errorf("replay %s %s/%s: %s: %w", op.Class, op.Key, op.Mode, stage, err)
	}

	var (
		toks []minic.Token
		ast  *minic.Program
		err  error
	)
	if t.lex, err = call("minic", "minic.Lex", func() (e error) { toks, e = minic.Lex(op.src); return }); err != nil {
		return fail("lex", err)
	}
	t.tokens = len(toks)
	if t.parse, err = call("minic", "minic.Parse", func() (e error) { ast, e = minic.Parse(op.src); return }); err != nil {
		return fail("parse", err)
	}
	if t.check, err = call("minic", "minic.Check", func() error { return minic.Check(ast) }); err != nil {
		return fail("check", err)
	}
	info, ok := codegen.StrategyByName(op.Mode)
	if !ok {
		return fail("strategy", codegen.UnknownStrategyError(op.Mode))
	}
	var prog *vm.Program
	for k, pre := range passPrefixes() {
		var p *vm.Program
		if t.compile[k], err = call("codegen", fmt.Sprintf("codegen.CompileIR/%d", k), func() (e error) {
			p, _, e = codegen.CompileIR(ast, codegen.Config{Mode: info.Mode, Passes: pre})
			return
		}); err != nil {
			return fail("compile", err)
		}
		if k == 0 {
			t.instrs = len(p.Instrs)
		}
		if k == len(op.Passes) {
			prog = p
		}
	}

	var vopts []vm.Option
	if op.StepLimit > 0 {
		vopts = append(vopts, vm.WithStepLimit(op.StepLimit))
	}
	for pass := 0; pass < 2; pass++ {
		var (
			m    *vm.Machine
			res  *vm.Result
			rerr error
		)
		dNew, err := call("vm", "vm.New", func() (e error) { m, e = vm.New(prog, info.Mode, vopts...); return })
		if err != nil {
			return fail("vm.New", err)
		}
		name := "vm.Run/first"
		if pass == 1 {
			name = "vm.Run/second"
		}
		dRun, _ := call("vm", name, func() error { res, rerr = m.Run(); return nil })
		var f *vm.Fault
		viol := errors.As(rerr, &f) && (f.IsBoundViolation() || m.IsGuardFault(f))
		if viol {
			rerr = nil
		}
		var out []int32
		if res != nil {
			out = res.Output
		}
		if err := rc.checkOutcome(op, viol, out, rerr); err != nil {
			return fail(name, err)
		}
		if pass == 0 {
			t.newM, t.firstRun = dNew, dRun
		} else {
			t.run = dRun
		}
	}

	opts := core.Options{Passes: op.Passes, StepLimit: op.StepLimit}
	if t.build, err = call("core", "core.Build", func() error { _, e := core.Build(op.src, core.Mode(op.Mode), opts); return e }); err != nil {
		return fail("core.Build", err)
	}
	var art *core.Artifact
	if t.buildMiss, err = call("serve", "serve.BuildContext/miss", func() (e error) {
		art, e = eng.BuildContext(ctx, op.src, core.Mode(op.Mode), opts)
		return
	}); err != nil {
		return fail("BuildContext", err)
	}
	if t.buildHit, err = call("serve", "serve.BuildContext/hit", func() (e error) {
		art, e = eng.BuildContext(ctx, op.src, core.Mode(op.Mode), opts)
		return
	}); err != nil {
		return fail("BuildContext", err)
	}
	var release func()
	if t.newMachine, err = call("serve", "serve.NewMachine", func() (e error) { _, release, e = eng.NewMachine(art); return }); err != nil {
		return fail("NewMachine", err)
	}
	release()
	for pass := 0; pass < 2; pass++ {
		var res *core.RunResult
		name := "serve.RunContext/miss"
		if pass == 1 {
			name = "serve.RunContext/hit"
		}
		d, rerr := call("serve", name, func() (e error) { res, e = eng.RunContext(ctx, art); return })
		var out []int32
		viol := false
		if res != nil {
			out = res.Output
			viol = res.Violation != nil
		}
		if err := rc.checkOutcome(op, viol, out, rerr); err != nil {
			return fail(name, err)
		}
		if pass == 0 {
			t.runMiss = d
		} else {
			t.runHit = d
		}
	}

	var resp *srv.RunResponse
	var werr error
	b0 := wire.bytes()
	t.rtt, _ = call("srv", "srv.Client.Run", func() error { resp, werr = client.Run(ctx, runRequest(op)); return nil })
	t.frame = wire.bytes() - b0
	if op.Class == classProbe {
		if err := rc.oracle.checkVerdict(op.Key, op.Mode, wireVerdict(resp, werr)); err != nil {
			return fail("srv.Client.Run", err)
		}
	} else if werr != nil {
		return fail("srv.Client.Run", werr)
	} else if err := rc.checkOutcome(op, resp.Violation != "", resp.Output, nil); err != nil {
		return fail("srv.Client.Run", err)
	}
	return t, nil
}

// localVerdict classifies an in-process probe outcome.
func localVerdict(violation bool, err error) string {
	var f *vm.Fault
	switch {
	case violation:
		return "caught"
	case err == nil:
		return "missed"
	case errors.As(err, &f) && f.Kind == vm.FaultStepLimit:
		return "step_limit"
	default:
		return "error"
	}
}

// checkOutcome checks one run against the oracle: a probe's verdict, or
// a clean run's output.
func (rc *runCtx) checkOutcome(op request, violation bool, out []int32, err error) error {
	if op.Class == classProbe {
		return rc.oracle.checkVerdict(op.Key, op.Mode, localVerdict(violation, err))
	}
	if err != nil {
		return err
	}
	if violation {
		return fmt.Errorf("spurious violation")
	}
	return rc.oracle.checkOutput(op.Key, out)
}

// countingConn counts the bytes a client connection reads and writes.
// The replay has one request in flight at a time, so the count across
// a Client.Run is that request's frame plus its reply's.
type countingConn struct {
	net.Conn
	n atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) bytes() int64 { return c.n.Load() }

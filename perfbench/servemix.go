package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"cash/internal/obs"
	"cash/internal/serve"
	"cash/internal/srv"
)

// Serve-mix schedule. A run first measures the server's capacity on
// the mix: a closed loop that sends capRequests requests, capInFlight
// at a time, counted per CPU-second of the process so that host steal
// does not read as a slower server. The run then offers the rest of the
// sequence open loop, for the rest of --seconds, at loadShare of that
// capacity (requests per CPU-second times nproc). p50_ms is the open
// loop's median latency, timed from each request's due time, and
// throughput_per_s its requests per CPU-second of the process.
//
// The capacity itself is reported, not gated: over ten runs on a 2-CPU
// virtual machine its quartiles lay 30% of the median apart, because a
// run's requests per CPU-second depend on whether the host lets the
// process use one CPU or both.
//
// The open loop runs at a twentieth of capacity because the load
// generator shares the server's process. On a 2-CPU host, at a fifth to
// a quarter of capacity the generator's p99 lag reached lagLimit, and
// at a tenth a run with 7% host steal stalled long enough to overflow
// the server's default admission (8 workers, 64 queued) and shed
// requests; at a twentieth the p99 lag stayed at 2-14 ms with nothing
// shed. Taking the rate from the same run keeps the load share the same
// on every host and commit.
//
// capRequests is about half a second at capacity on that host. A
// probe three times longer measured no steadier, and every unique
// request it sends leaves an artifact the process keeps.
//
// lagLimit is two of the Go scheduler's 10 ms preemption slices: a
// generator that waits longer for a processor is measuring its own
// schedule, not the server.
const (
	capRequests = 4000
	loadShare   = 0.05
	capInFlight = 2 * srv.DefaultWorkers // every server worker busy, none shed (queue depth 64)
	lagLimit    = 20 * time.Millisecond  // p99 generator lag beyond which a run is invalid
)

// mixServer is an in-process cashserve: the default engine behind a
// default srv.Server on loopback TCP, with nproc client connections.
type mixServer struct {
	eng     *serve.Engine
	s       *srv.Server
	served  chan error
	clients []*srv.Client
}

func startMixServer(conns int) (*mixServer, error) {
	eng, err := serve.Open(serve.EngineConfig{})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	m := &mixServer{eng: eng, s: srv.New(srv.Config{Engine: eng}), served: make(chan error, 1)}
	go func() { m.served <- m.s.Serve(l) }()
	for i := 0; i < conns; i++ {
		c, err := srv.Dial(l.Addr().String())
		if err != nil {
			m.close()
			return nil, err
		}
		m.clients = append(m.clients, c)
	}
	return m, nil
}

// close drains the server, waits for its accept loop and closes the
// engine.
func (m *mixServer) close() error {
	for _, c := range m.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	serr := m.s.Shutdown(ctx)
	if err := <-m.served; err != nil && !errors.Is(err, srv.ErrServerClosed) && serr == nil {
		serr = err
	}
	if err := m.eng.Close(); err != nil && serr == nil {
		serr = err
	}
	return serr
}

// sample is one open-loop request's outcome.
type sample struct {
	lat int64 // ns from the request's due time to its completion
	lag int64 // ns from the due time to when the generator sent it
	err error
}

// wireVerdict classifies a probe's wire outcome.
func wireVerdict(resp *srv.RunResponse, err error) string {
	var se *srv.ServerError
	switch {
	case err == nil && resp.Violation != "":
		return "caught"
	case err == nil:
		return "missed"
	case errors.As(err, &se) && se.Code == srv.CodeInternal && strings.Contains(se.Message, "step limit exceeded"):
		return "step_limit"
	default:
		return "error"
	}
}

func runRequest(r request) srv.RunRequest {
	return srv.RunRequest{Source: r.src, Mode: r.Mode, Options: srv.WireOptions{Passes: r.Passes, StepLimit: r.StepLimit}}
}

// sendOne issues one request and checks its reply against the oracle.
func sendOne(ctx context.Context, c *srv.Client, orc *oracle, r request) error {
	resp, err := c.Run(ctx, runRequest(r))
	if r.Class == classProbe {
		if v := wireVerdict(resp, err); v != "error" {
			return orc.checkVerdict(r.Key, r.Mode, v)
		}
	}
	if err != nil {
		return fmt.Errorf("%s %s/%s: %w", r.Class, r.Key, r.Mode, err)
	}
	if resp.Violation != "" {
		return fmt.Errorf("%s %s/%s: spurious violation %s", r.Class, r.Key, r.Mode, resp.Violation)
	}
	if err := orc.checkOutput(r.Key, resp.Output); err != nil {
		return fmt.Errorf("%s %s %v: %w", r.Mode, r.Class, r.Passes, err)
	}
	return nil
}

// closedLoop sends the next n requests of src with inFlight of them in
// flight at a time, spread over the clients, and returns each request's
// error and the time from the first send to the last reply.
func closedLoop(ctx context.Context, clients []*srv.Client, orc *oracle, src *mixSource, inFlight, n int) ([]error, time.Duration) {
	var (
		mu   sync.Mutex
		errs []error
		wg   sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < inFlight; w++ {
		wg.Add(1)
		go func(c *srv.Client) {
			defer wg.Done()
			for {
				mu.Lock()
				if len(errs) == n {
					mu.Unlock()
					return
				}
				r := src.next()
				errs = append(errs, nil)
				k := len(errs) - 1
				mu.Unlock()
				err := sendOne(ctx, c, orc, r)
				mu.Lock()
				errs[k] = err
				mu.Unlock()
			}
		}(clients[w%len(clients)])
	}
	wg.Wait()
	return errs, time.Since(start)
}

// openLoop issues n requests drawn from src, request k due at
// start + k/rate regardless of earlier completions, spread round-robin
// over the clients, and waits for every reply.
func openLoop(ctx context.Context, clients []*srv.Client, orc *oracle, src *mixSource, rate float64, n int) []sample {
	samples := make([]sample, n)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < n; k++ {
		r := src.next()
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		wg.Add(1)
		go func(k int, r request) {
			defer wg.Done()
			err := sendOne(ctx, clients[k%len(clients)], orc, r)
			samples[k] = sample{lat: int64(time.Since(due)), lag: int64(sent.Sub(due)), err: err}
		}(k, r)
	}
	wg.Wait()
	return samples
}

// latencies returns the samples' latencies; a failed or refused
// request counts as infinitely late, so it misses any latency limit.
func latencies(ss []sample) dist {
	ns := make([]int64, len(ss))
	for i, s := range ss {
		ns[i] = s.lat
		if s.err != nil {
			ns[i] = math.MaxInt64
		}
	}
	return newDist(ns)
}

func lags(ss []sample) dist {
	ns := make([]int64, len(ss))
	for i, s := range ss {
		ns[i] = s.lag
	}
	return newDist(ns)
}

// runServeMix is cashserve traffic: an in-process server with
// cashserve's defaults on loopback TCP, loaded from this process over
// nproc connections. About 80% of requests repeat a small hot set warmed
// during set-up (run-cache hits), 15% occur once each (parse, check,
// compile, machine, run) and 5% are overflow probes with a request step
// limit. setup_s is starting the server, connecting and warming the hot
// set; the other metrics are described with the schedule above.
func runServeMix(rc *runCtx) error {
	ctx := context.Background()
	rep := rc.rep
	conns := runtime.NumCPU()
	src := newMixSource(rc.seed)

	setup := func() (*mixServer, time.Duration, error) {
		t0 := time.Now()
		m, err := startMixServer(conns)
		if err != nil {
			return nil, 0, err
		}
		for j, r := range src.hot {
			if err := sendOne(ctx, m.clients[j%conns], rc.oracle, r); err != nil {
				m.close()
				return nil, 0, fmt.Errorf("warming the hot set: %w", err)
			}
		}
		return m, time.Since(t0), nil
	}

	// Set up setupReps times and keep the last server; setup_s is the
	// median.
	var m *mixServer
	setups := make([]time.Duration, setupReps)
	for i := range setups {
		if m != nil {
			if err := m.close(); err != nil {
				return err
			}
		}
		var err error
		if m, setups[i], err = setup(); err != nil {
			return err
		}
	}
	rep.set("setup_s", medianDur(setups).Seconds(), "s")

	// Collect the set-up's garbage before timing, so every run's timed
	// phase starts from the same heap and the peak does not depend on
	// where the collector's cycle stood.
	runtime.GC()
	base := obs.Default().Snapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	total := time.Duration(rc.seconds) * time.Second
	t0 := time.Now()
	cpu0 := cpuTime()
	capRun, capWall := closedLoop(ctx, m.clients, rc.oracle, src, capInFlight, capRequests)
	capCPU := cpuTime() - cpu0
	perCPU := float64(len(capRun)) / capCPU.Seconds()
	capacity := perCPU * float64(conns)
	rate := loadShare * capacity
	cpu1 := cpuTime()
	all := openLoop(ctx, m.clients, rc.oracle, src, rate, int(rate*(total-capWall).Seconds()))
	elapsed, openCPU := time.Since(t0), cpuTime()-cpu1
	runtime.ReadMemStats(&ms1)
	delta := obs.Default().Snapshot().Delta(base)
	if err := m.close(); err != nil {
		return err
	}

	rep.Attempted += int64(len(capRun) + len(all))
	for _, err := range capRun {
		if err != nil {
			rep.fail("%v", err)
		}
	}
	for _, s := range all {
		if s.err != nil {
			rep.fail("%v", s.err)
		}
	}
	lat, lg := latencies(all), lags(all)
	lagP99 := lg.rank(0.99)
	if time.Duration(lagP99) > lagLimit {
		rep.Invalid = fmt.Sprintf("load generator fell behind its schedule: p99 lag %.2f ms > %v", ms(lagP99), lagLimit)
	}

	rep.set("p50_ms", ms(lat.median()), "ms")
	rep.set("throughput_per_s", float64(len(all))/openCPU.Seconds(), "1/s")
	rep.note("serve_capacity_per_s", capacity, "1/s", fmt.Sprintf("closed loop, %d in flight over %d connections: %d requests in %.3f CPU-s of the process (%.3f s wall), per CPU-second times nproc", capInFlight, conns, len(capRun), capCPU.Seconds(), capWall.Seconds()))
	rep.note("serve_req_per_cpu_s", float64(len(all))/openCPU.Seconds(), "1/s", fmt.Sprintf("open loop: %d requests in %.3f CPU-s of the process (server and load generator)", len(all), openCPU.Seconds()))
	rep.note("serve_p50_ms", ms(lat.median()), "ms", fmt.Sprintf("open loop at %.0f/s (%.0f%% of capacity), %d requests", rate, loadShare*100, len(lat)))
	tp, tv := lat.tail()
	rep.note("serve_tail_ms", ms(tv), "ms", fmt.Sprintf("p%g of the same %d requests", tp, len(lat)))
	rep.note("loadgen.lag_ms", ms(lagP99), "ms", fmt.Sprintf("p99 of the open loop; max %.3f ms; runs with p99 above %v are invalid", ms(lg.rank(1)), lagLimit))
	rep.set("loadgen.lag_ms", ms(lagP99), "ms")

	rc.jobCounters(delta, delta.Counters["vm.sim.instructions"], elapsed, &ms0, &ms1, rep.Attempted)
	if !rc.trace {
		return nil
	}
	ops := newMixSource(rc.seed)
	replay := make([]request, replayOps)
	for i := range replay {
		replay[i] = ops.next()
	}
	return rc.replayLayers(replay)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

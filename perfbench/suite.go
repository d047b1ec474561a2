package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"cash/internal/bench"
	"cash/internal/obs"
	"cash/internal/serve"
	"cash/internal/store"
	"cash/internal/vm"
)

// goldenPath is the committed output of `cashbench -all -requests 200`,
// relative to the repository root. The benchmark only reads it.
const goldenPath = "internal/bench/testdata/golden_all_200.txt"

// suiteRequests is the network experiments' request count, matching the
// golden.
const suiteRequests = 200

// setupReps is how many times serve-mix and cold-programs repeat their
// set-up (setup_s is the median), and how many store.Open calls a
// traced paper-suite run times.
const setupReps = 51

// restartsPerSecond is how many restart-warm passes paper-suite makes
// per --seconds. A pass takes 0.08-0.14 s on a 2-vCPU virtual machine,
// whose speed swings by a tenth from one second to the next, so at
// --seconds 10 the median spans 12-21 s of passes rather than a few.
const restartsPerSecond = 15

// suiteRun is one pass over every InAll table plus the Figure 1 trace,
// the exact byte stream `cashbench -all` prints.
type suiteRun struct {
	out    string
	wall   time.Duration
	tables []tableTime
}

type tableTime struct {
	id     string
	wall   time.Duration
	instrs uint64
}

// generateSuite regenerates the suite through eng, with one bench span
// per table under parent.
func generateSuite(ctx context.Context, eng *serve.Engine, tr *tracer, parent int) (suiteRun, error) {
	var (
		b   strings.Builder
		run suiteRun
	)
	start := time.Now()
	for _, sp := range bench.Specs() {
		if !sp.InAll {
			continue
		}
		i0, _ := vm.SimCounters()
		t0 := time.Now()
		id := tr.begin(parent, "bench", "bench.Spec.Generate/"+sp.ID, -1)
		tab, err := sp.Generate(ctx, eng, suiteRequests)
		tr.end(id)
		if err != nil {
			return run, fmt.Errorf("table %s: %w", sp.ID, err)
		}
		i1, _ := vm.SimCounters()
		run.tables = append(run.tables, tableTime{id: sp.ID, wall: time.Since(t0), instrs: i1 - i0})
		b.WriteString(tab.Format())
		b.WriteByte('\n')
	}
	t0 := time.Now()
	id := tr.begin(parent, "bench", "bench.Figure1TraceContext", -1)
	fig, err := bench.Figure1TraceContext(ctx, eng)
	tr.end(id)
	if err != nil {
		return run, fmt.Errorf("figure1: %w", err)
	}
	run.tables = append(run.tables, tableTime{id: "figure1", wall: time.Since(t0)})
	b.WriteString(fig)
	run.out = b.String()
	run.wall = time.Since(start)
	return run, nil
}

// suiteEngine opens the engine paper-suite uses: the default
// configuration plus a store directory and parallelism = nproc.
func suiteEngine(dir string) (*serve.Engine, error) {
	return serve.Open(serve.EngineConfig{StoreDir: dir, Parallelism: runtime.NumCPU()})
}

// suiteSetup is paper-suite's set-up: reading the golden and opening an
// engine on a fresh store directory under the run's temp dir.
func suiteSetup(rc *runCtx) (golden []byte, dir string, eng *serve.Engine, d time.Duration, err error) {
	t0 := time.Now()
	if golden, err = os.ReadFile(goldenPath); err != nil {
		return nil, "", nil, 0, err
	}
	if dir, err = os.MkdirTemp(rc.tmp, "store-"); err != nil {
		return nil, "", nil, 0, err
	}
	if eng, err = suiteEngine(dir); err != nil {
		return nil, "", nil, 0, err
	}
	return golden, dir, eng, time.Since(t0), nil
}

// runPaperSuite is the reproducer's job: every InAll table at
// requests=200, cold on a fresh engine and store, then restart-warm on
// new engines opened on the same store, restartsPerSecond × --seconds
// passes. Both phases are byte-compared with the golden.
//
// Metrics: p50_ms is the median restart-warm pass wall time;
// throughput_per_s is result tables (with Figure 1) per second of the
// cold pass; setup_s is the median of the set-up before the cold pass
// and one more after each restart-warm pass (see suiteSetup).
func runPaperSuite(rc *runCtx) error {
	ctx := context.Background()
	rep := rc.rep

	golden, dir, eng, d, err := suiteSetup(rc)
	if err != nil {
		return err
	}
	setups := []time.Duration{d}

	root := rc.tr.begin(0, "", "paper-suite", -1)
	base := obs.Default().Snapshot()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cold, err := generateSuite(ctx, eng, rc.tr, root)
	if err != nil {
		return err
	}
	if err := eng.Close(); err != nil {
		return err
	}
	coldDelta := obs.Default().Snapshot().Delta(base)
	rep.Exact = exactCounters(coldDelta)
	rep.Attempted++
	if cold.out != string(golden) {
		rep.fail("cold pass differs from %s (%d vs %d bytes)", goldenPath, len(cold.out), len(golden))
	}

	// A restarted process starts without the cold engine's garbage, so
	// collect it before the first restart pass, with the clock stopped.
	// Left to the collector's own pace, the first pass sometimes ran on
	// top of it, and the peak moved between about 145 and 220 MB from
	// run to run. The collection's pause is kept out of
	// runtime.gc_pause_ms.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runtime.GC()
	runtime.ReadMemStats(&after)
	gcPause := after.PauseTotalNs - before.PauseTotalNs

	// Restart-warm passes: each opens a new engine on the populated
	// store, as a restarted process would. The count is fixed per
	// --seconds, so the tail percentile does not depend on host speed.
	var restarts []int64
	for len(restarts) < restartsPerSecond*rc.seconds {
		t0 := time.Now()
		id := rc.tr.begin(root, "serve", "serve.Open", -1)
		e, err := suiteEngine(dir)
		rc.tr.end(id)
		if err != nil {
			return err
		}
		warm, err := generateSuite(ctx, e, rc.tr, root)
		if err != nil {
			return err
		}
		if err := e.Close(); err != nil {
			return err
		}
		restarts = append(restarts, int64(time.Since(t0)))
		rep.Attempted++
		if warm.out != string(golden) {
			rep.fail("restart-warm pass %d differs from %s", len(restarts), goldenPath)
		}
		// A set-up takes about 0.1 ms, so repeating it back to
		// back would time one moment of host speed; spread through the
		// restart phase, its median covers the same seconds as p50_ms.
		_, sdir, seng, d, err := suiteSetup(rc)
		if err != nil {
			return err
		}
		setups = append(setups, d)
		if err := seng.Close(); err != nil {
			return err
		}
		if err := os.RemoveAll(sdir); err != nil {
			return err
		}
	}
	rep.set("setup_s", medianDur(setups).Seconds(), "s")
	rc.tr.end(root)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	ms1.PauseTotalNs -= gcPause
	delta := obs.Default().Snapshot().Delta(base)

	rd := newDist(restarts)
	tp, tv := rd.tail()
	nTables := float64(len(cold.tables))
	rep.set("p50_ms", ms(rd.median()), "ms")
	rep.set("throughput_per_s", nTables/cold.wall.Seconds(), "1/s")

	rep.note("suite_cold_s", cold.wall.Seconds(), "s", "cold pass, fresh engine and store")
	rep.note("suite_restart_s", rd.median()/1e9, "s", fmt.Sprintf("median of %d restart-warm passes; p%g %.4f s", len(rd), tp, tv/1e9))
	instrs := coldDelta.Counters["vm.sim.instructions"]
	rep.note("vm.sim_mips", float64(instrs)/cold.wall.Seconds()/1e6, "Minstr/s", "cold pass")
	for _, t := range cold.tables {
		rep.note("bench.table."+t.id+"_s", t.wall.Seconds(), "s", fmt.Sprintf("cold; %.1f Minstr/s", float64(t.instrs)/t.wall.Seconds()/1e6))
	}

	// Layer figures measured on the job itself: counters over the cold
	// and restart passes, simulation speed over the cold pass.
	rc.jobCounters(delta, instrs, cold.wall, &ms0, &ms1, int64(nTables)*int64(1+len(restarts)))
	if !rc.trace {
		return nil
	}
	// store.Open on the populated directory, on its own.
	var opens []time.Duration
	var bytes int64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		d, err := store.Open(dir, store.Options{})
		opens = append(opens, time.Since(t0))
		if err != nil {
			return err
		}
		bytes = d.Bytes()
		d.Close()
	}
	rep.set("store.open_s", medianDur(opens).Seconds(), "s")
	rep.set("store.bytes", float64(bytes), "bytes")
	rep.addSelfTime(rc.tr, root, "paper-suite job")
	return rc.replayLayers(suiteReplayOps(rc.seed))
}

// exactCounters picks the counters a cold paper-suite pass must repeat
// bit for bit: simulated work, compiles and faults. Scheduling-dependent
// counters such as serve.build.coalesced are left out.
func exactCounters(d obs.Snapshot) map[string]uint64 {
	out := map[string]uint64{}
	for name, v := range d.Counters {
		if name == "vm.sim.instructions" || name == "vm.sim.cycles" || name == "serve.build.compiles" ||
			strings.HasPrefix(name, "vm.faults.") {
			out[name] = v
		}
	}
	return out
}

package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"cash/internal/core"
	"cash/internal/obs"
	"cash/internal/serve"
)

// coldOp is one timed cold-programs operation.
type coldOp struct {
	build, run time.Duration
}

// runColdPrograms is a cold-start storm: a closed loop of nproc workers,
// each operation a BuildContext miss then the first RunContext of the
// fresh artifact. Every round opens a fresh engine and runs the whole
// key set (corpus × strategies × {no passes, all passes}) in a seeded
// order, so no operation is ever a cache hit.
//
// Metrics: p50_ms is the BuildContext miss latency; throughput_per_s
// is operations completed per second, not counting the collections
// forced between rounds; setup_s is generating one round's key set and
// opening a fresh engine.
func runColdPrograms(rc *runCtx) error {
	ctx := context.Background()
	rep := rc.rep
	rng := newRNG("cold-programs", rc.seed)

	var setups []time.Duration
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		keys := coldKeys()
		eng := serve.NewEngine(serve.EngineConfig{})
		setups = append(setups, time.Since(t0))
		if len(keys) == 0 {
			return fmt.Errorf("empty key set")
		}
		if err := eng.Close(); err != nil {
			return err
		}
	}
	rep.set("setup_s", medianDur(setups).Seconds(), "s")

	workers := runtime.NumCPU()
	base := obs.Default().Snapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var (
		mu  sync.Mutex
		ops []coldOp
	)
	start := time.Now()
	deadline := start.Add(time.Duration(rc.seconds) * time.Second)
	rounds := 0
	var (
		paused  time.Duration // forced collections, kept out of the timings
		gcPause uint64        // their stop-the-world pauses, kept out of runtime.gc_pause_ms
	)
	for time.Now().Before(deadline) {
		// Collect the previous round's engine with the clock stopped, so
		// each round starts from the same heap and the peak does not
		// depend on when the collector happened to run.
		g0 := time.Now()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runtime.GC()
		runtime.ReadMemStats(&after)
		gcPause += after.PauseTotalNs - before.PauseTotalNs
		d := time.Since(g0)
		paused += d
		deadline = deadline.Add(d)
		keys := coldRound(rng)
		eng := serve.NewEngine(serve.EngineConfig{})
		rounds++
		var next int
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					if next == len(keys) || !time.Now().Before(deadline) {
						mu.Unlock()
						return
					}
					k := keys[next]
					next++
					mu.Unlock()
					op, err := coldOnce(ctx, eng, rc.oracle, k)
					mu.Lock()
					rep.Attempted++
					if err != nil {
						rep.fail("%s", err)
					} else {
						ops = append(ops, op)
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if err := eng.Close(); err != nil {
			return err
		}
	}
	elapsed := time.Since(start) - paused
	runtime.ReadMemStats(&ms1)
	ms1.PauseTotalNs -= gcPause
	delta := obs.Default().Snapshot().Delta(base)
	if len(ops) == 0 {
		return fmt.Errorf("no operation completed")
	}

	builds := make([]int64, len(ops))
	runs := make([]int64, len(ops))
	for i, op := range ops {
		builds[i] = int64(op.build)
		runs[i] = int64(op.run)
	}
	bd, rd := newDist(builds), newDist(runs)
	rep.set("p50_ms", ms(bd.median()), "ms")
	rep.set("throughput_per_s", float64(len(ops))/elapsed.Seconds(), "1/s")

	bp, bv := bd.tail()
	rep.note("cold_build_p50_ms", ms(bd.median()), "ms", fmt.Sprintf("BuildContext miss, %d samples", len(bd)))
	rep.note("cold_build_tail_ms", ms(bv), "ms", fmt.Sprintf("p%g of the same %d builds", bp, len(bd)))
	rep.note("cold_first_run_p50_ms", ms(rd.median()), "ms", fmt.Sprintf("first RunContext of a fresh artifact, %d samples", len(rd)))
	rep.note("cold_programs_per_s", float64(len(ops))/elapsed.Seconds(), "1/s", fmt.Sprintf("%d workers, %d rounds of %d keys", workers, rounds, len(coldKeys())))

	rc.jobCounters(delta, delta.Counters["vm.sim.instructions"], elapsed, &ms0, &ms1, int64(len(ops)))
	if !rc.trace {
		return nil
	}
	ops64 := coldRound(newRNG("cold-programs", rc.seed))
	return rc.replayLayers(ops64[:replayOps])
}

// coldOnce builds one key on the engine (a miss: the engine is fresh
// and the round's keys are distinct) and runs the fresh artifact once,
// checking its output against the oracle.
func coldOnce(ctx context.Context, eng *serve.Engine, orc *oracle, k request) (coldOp, error) {
	t0 := time.Now()
	art, err := eng.BuildContext(ctx, k.src, core.Mode(k.Mode), core.Options{Passes: k.Passes})
	t1 := time.Now()
	if err != nil {
		return coldOp{}, fmt.Errorf("%s/%s build: %w", k.Key, k.Mode, err)
	}
	res, err := eng.RunContext(ctx, art)
	t2 := time.Now()
	if err != nil {
		return coldOp{}, fmt.Errorf("%s/%s run: %w", k.Key, k.Mode, err)
	}
	if res.Violation != nil {
		return coldOp{}, fmt.Errorf("%s/%s: spurious violation: %v", k.Key, k.Mode, res.Violation)
	}
	if err := orc.checkOutput(k.Key, res.Output); err != nil {
		return coldOp{}, fmt.Errorf("%s %v: %w", k.Mode, k.Passes, err)
	}
	return coldOp{build: t1.Sub(t0), run: t2.Sub(t1)}, nil
}

package bench

import (
	"fmt"
	"sort"
	"time"

	"cash/internal/core"
	"cash/internal/workload"
)

// KernelTiming is the measured host-side cost of one Table 1 kernel
// under a harness configuration (passes, tier): the median
// wall-clock nanoseconds per complete run and the simulated
// instructions one run executes. `cashbench -json` emits these so
// BENCH_*.json speedup records can be generated without hand-editing.
type KernelTiming struct {
	Name            string
	HostNSPerOp     int64
	SimInstructions uint64
}

// KernelHostTimings builds each Table 1 kernel under cfg and times runs
// complete executions, reporting the
// median. Runs below 1 are treated as 1. The kernels execute
// sequentially on the calling goroutine — wall-clock per op is the
// quantity being measured, so nothing else may share the host.
func KernelHostTimings(cfg Config, runs int) ([]KernelTiming, error) {
	if runs < 1 {
		runs = 1
	}
	ws := workload.Kernels()
	out := make([]KernelTiming, 0, len(ws))
	for _, w := range ws {
		art, err := core.Build(w.Source, core.ModeCash, cfg.opt(core.Options{}))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		samples := make([]int64, runs)
		var instrs uint64
		for i := 0; i < runs; i++ {
			start := time.Now()
			res, err := art.Run()
			samples[i] = time.Since(start).Nanoseconds()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			if res.Violation != nil {
				return nil, fmt.Errorf("%s: spurious violation: %v", w.Name, res.Violation)
			}
			instrs = res.Stats.Instructions
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		out = append(out, KernelTiming{
			Name:            w.Name,
			HostNSPerOp:     samples[runs/2],
			SimInstructions: instrs,
		})
	}
	return out, nil
}

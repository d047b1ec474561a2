package bench

import (
	"context"
	"fmt"

	"cash/internal/codegen"
	"cash/internal/core"
	"cash/internal/serve"
	"cash/internal/workload"
)

// Config is the harness configuration every experiment in this package
// compiles and runs under. The zero value is the paper's exact
// replication: no IR passes and a strategy matrix that sweeps the whole
// registry.
type Config struct {
	// Passes are the IR optimization passes every experiment compiles
	// with, so `cashbench -passes rce,hoist` regenerates the entire
	// suite under the optimizing back end.
	Passes []string
	// Strategies restricts the strategy matrix to the named checking
	// strategies (`cashbench -strategy mpx`); nil sweeps the registry.
	Strategies []string
}

// Validate rejects unknown strategy names with the registry's error
// listing the valid ones.
func (c Config) Validate() error {
	for _, n := range c.Strategies {
		if _, ok := codegen.StrategyByName(n); !ok {
			return codegen.UnknownStrategyError(n)
		}
	}
	return nil
}

// opt stamps the configured passes onto one experiment's build options.
func (c Config) opt(o core.Options) core.Options {
	if len(c.Passes) > 0 && o.Passes == nil {
		o.Passes = c.Passes
	}
	return o
}

// compare runs one workload under the paper's gcc/bcc/cash trio through
// eng, with cfg stamped onto the shared build options.
func compare(ctx context.Context, eng *serve.Engine, cfg Config, w workload.Workload, o core.Options) (*core.Comparison, error) {
	return eng.CompareStrategiesContext(ctx, w.Name, w.Source, core.CompareConfig{Options: cfg.opt(o)})
}

// ablationPasses measures what the optional IR passes buy on the six
// numerical kernels under BCC (the mode where every check is software,
// so eliminated checks translate directly into cycles): static and
// dynamic software-check counts and cycles, with passes off versus
// rce+hoist.
func ablationPasses(ctx context.Context, eng *serve.Engine) (*Table, error) {
	t := &Table{
		ID:      "ablation-passes",
		Title:   "IR optimization pass ablation (BCC; off vs rce+hoist)",
		Columns: []string{"Program", "Static SW", "Dynamic SW", "Cycles", "Δ Cycles"},
		Notes: []string{
			"rce deletes checks already performed on every path; hoist replaces counted-loop checks with two preheader range checks",
			"columns show off -> on; Δ is the cycle reduction of the optimized build",
		},
	}
	ws := workload.Kernels()
	t.Rows = make([][]string, len(ws))
	err := eng.Do(len(ws), func(i int) error {
		w := ws[i]
		off, err := measurePasses(ctx, eng, w, nil)
		if err != nil {
			return fmt.Errorf("%s off: %w", w.Name, err)
		}
		on, err := measurePasses(ctx, eng, w, []string{"rce", "hoist"})
		if err != nil {
			return fmt.Errorf("%s on: %w", w.Name, err)
		}
		t.Rows[i] = []string{
			w.Paper,
			fmt.Sprintf("%d -> %d", off.staticSW, on.staticSW),
			fmt.Sprintf("%d -> %d", off.dynSW, on.dynSW),
			fmt.Sprintf("%d -> %d", off.cycles, on.cycles),
			pct(100 * (float64(off.cycles) - float64(on.cycles)) / float64(off.cycles)),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// passMeasurement is one build+run of a kernel under a pass setting.
type passMeasurement struct {
	staticSW uint64
	dynSW    uint64
	cycles   uint64
	affine   uint64 // checks the affine pass replaced (0 unless it ran)
}

func measurePasses(ctx context.Context, eng *serve.Engine, w workload.Workload, passes []string) (passMeasurement, error) {
	var m passMeasurement
	// Deliberately not cfg.opt(): the ablation's off-arm must stay
	// pass-free even under `cashbench -passes`.
	art, err := eng.BuildContext(ctx, w.Source, core.ModeBCC, core.Options{Passes: passes})
	if err != nil {
		return m, err
	}
	res, err := eng.RunContext(ctx, art)
	if err != nil {
		return m, err
	}
	if res.Violation != nil {
		return m, fmt.Errorf("spurious violation: %v", res.Violation)
	}
	m.staticSW = art.StaticStats()["sw_checks_static"]
	m.dynSW = res.Stats.SWChecks
	m.cycles = res.Cycles
	m.affine = art.StaticStats()["sw_checks_affine"]
	return m, nil
}

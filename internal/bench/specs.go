package bench

import (
	"context"
	"fmt"
	"strings"

	"cash/internal/chaos"
	"cash/internal/netsim"
	"cash/internal/serve"
	"cash/internal/workload"
)

// Spec describes one table of the paper's evaluation: its identity, a
// caption for listings, whether `cashbench -all` includes it, and the
// generator that produces it through a serving Engine. The registry is
// the single source of truth for table ids — Table-by-id lookup, the
// -list output, AllTablesTimedContext ordering and the unknown-id error
// all derive from it.
type Spec struct {
	// ID is the stable identifier (e.g. "table1", "ablation-segregs").
	ID string
	// Caption is a one-line description for listings.
	Caption string
	// InAll reports whether AllTablesTimedContext regenerates this
	// table. The resilience table is excluded: the paper's tables are
	// chaos-free, and keeping it separate keeps their goldens
	// byte-identical.
	InAll bool
	// Generate produces the table. Generators that measure the network
	// experiment honor requests; the rest ignore it.
	Generate func(ctx context.Context, eng *serve.Engine, requests int) (*Table, error)
}

// Specs returns every table spec in paper order under the zero Config,
// the paper's exact replication. The slice is freshly allocated; callers
// may reorder or filter it.
func Specs() []Spec { return SpecsFor(Config{}) }

// SpecsFor returns every table spec in paper order, each generator
// bound to cfg.
func SpecsFor(cfg Config) []Spec {
	return []Spec{
		{ID: "table1", Caption: "kernel overheads and dynamic check counts (§4.2, Table 1)", InAll: true,
			Generate: func(ctx context.Context, eng *serve.Engine, _ int) (*Table, error) {
				return table1(ctx, eng, cfg, 4)
			}},
		{ID: "table2", Caption: "kernel binary code size (§4.2, Table 2)", InAll: true,
			Generate: func(ctx context.Context, eng *serve.Engine, _ int) (*Table, error) {
				return sizeTable(ctx, eng, cfg, "table2", "kernel binary code size", workload.Kernels())
			}},
		{ID: "table3", Caption: "Cash overhead vs input size (§4.2, Table 3)", InAll: true,
			Generate: func(ctx context.Context, eng *serve.Engine, _ int) (*Table, error) {
				return table3(ctx, eng, cfg)
			}},
		{ID: "table4", Caption: "macro-application characteristics (§4.3, Table 4)", InAll: true,
			Generate: func(ctx context.Context, eng *serve.Engine, _ int) (*Table, error) {
				return characteristicsTable(ctx, eng, cfg, "table4", "macro-application characteristics", workload.Macros())
			}},
		{ID: "table5", Caption: "macro-application overheads (§4.3, Table 5)", InAll: true,
			Generate: func(ctx context.Context, eng *serve.Engine, _ int) (*Table, error) {
				return table5(ctx, eng, cfg)
			}},
		{ID: "table6", Caption: "macro-application binary code size (§4.3, Table 6)", InAll: true,
			Generate: func(ctx context.Context, eng *serve.Engine, _ int) (*Table, error) {
				return sizeTable(ctx, eng, cfg, "table6", "macro-application binary code size", workload.Macros())
			}},
		{ID: "table7", Caption: "network-application characteristics (§4.4, Table 7)", InAll: true,
			Generate: func(ctx context.Context, eng *serve.Engine, _ int) (*Table, error) {
				return characteristicsTable(ctx, eng, cfg, "table7", "network-application characteristics", workload.NetworkApps())
			}},
		{ID: "table8", Caption: "network-application penalties (§4.4, Table 8)", InAll: true,
			Generate: func(ctx context.Context, eng *serve.Engine, requests int) (*Table, error) {
				return table8(ctx, eng, cfg, requests)
			}},
		{ID: "table8bcc", Caption: "network applications under BCC (beyond the paper)", InAll: true,
			Generate: func(ctx context.Context, eng *serve.Engine, requests int) (*Table, error) {
				return table8BCC(ctx, eng, cfg, requests)
			}},
		{ID: "ablation-segregs", Caption: "segment-register budget sweep (§4.2)", InAll: true,
			Generate: func(ctx context.Context, eng *serve.Engine, _ int) (*Table, error) {
				return ablationSegRegs(ctx, eng, cfg)
			}},
		{ID: "bound", Caption: "bound instruction vs 6-instruction sequence (§2)", InAll: true,
			Generate: func(ctx context.Context, eng *serve.Engine, _ int) (*Table, error) {
				return boundInstrTable(ctx, eng, cfg)
			}},
		{ID: "detectors", Caption: "bound-violation detector comparison (§2)", InAll: true,
			Generate: func(ctx context.Context, eng *serve.Engine, _ int) (*Table, error) {
				return detectorTable(ctx, eng, cfg)
			}},
		{ID: "constants", Caption: "Cash overhead constants (§4.1)", InAll: true,
			Generate: func(ctx context.Context, _ *serve.Engine, _ int) (*Table, error) {
				return ConstantsTable()
			}},
		{ID: "ldt", Caption: "modify_ldt vs call-gate cost (§3.6)", InAll: true,
			Generate: func(ctx context.Context, _ *serve.Engine, _ int) (*Table, error) {
				return LDTCostTable()
			}},
		{ID: "cache", Caption: "segment allocation and the 3-entry cache (§4.5)", InAll: true,
			Generate: func(ctx context.Context, eng *serve.Engine, _ int) (*Table, error) {
				return cacheTable(ctx, eng, cfg)
			}},
		{ID: "segments", Caption: "peak live segments vs the 8191 budget (§4.5)", InAll: true,
			Generate: func(ctx context.Context, eng *serve.Engine, _ int) (*Table, error) {
				return segmentsTable(ctx, eng, cfg)
			}},
		{ID: "figure2", Caption: "granularity-bit behaviour for large arrays (§3.5)", InAll: true,
			Generate: func(ctx context.Context, _ *serve.Engine, _ int) (*Table, error) {
				return Figure2Table()
			}},
		// The pass ablation is excluded from -all so the historical
		// golden (which predates the optimizing back end) stays
		// byte-identical; it has its own golden file.
		{ID: "ablation-passes", Caption: "IR optimization pass ablation: rce + hoist on the kernels", InAll: false,
			Generate: func(ctx context.Context, eng *serve.Engine, _ int) (*Table, error) {
				return ablationPasses(ctx, eng)
			}},
		// Same reasoning: the affine ablation rides outside -all with its
		// own golden, so the historical suite goldens stay byte-identical.
		{ID: "ablation-affine", Caption: "affine range analysis on computed indices: kernels + range kernels", InAll: false,
			Generate: func(ctx context.Context, eng *serve.Engine, _ int) (*Table, error) {
				return ablationAffine(ctx, eng)
			}},
		// The strategy matrix also rides outside -all with its own
		// golden: it post-dates the named-strategy registry, and folding
		// it into -all would churn the historical suite goldens.
		{ID: "strategy-matrix", Caption: "checking strategy x pass-pipeline matrix: kernels + range kernels", InAll: false,
			Generate: func(ctx context.Context, eng *serve.Engine, _ int) (*Table, error) {
				return strategyMatrix(ctx, eng, cfg)
			}},
		// The resilience generator measures on a fresh private Engine
		// that takes only the caller's worker budget and trace, so its
		// published metrics delta is a pure function of (requests, seed,
		// rate) — see ResilienceTableContext.
		{ID: "resilience", Caption: "server resilience under deterministic fault injection", InAll: false,
			Generate: func(ctx context.Context, eng *serve.Engine, requests int) (*Table, error) {
				return ResilienceTableContext(ctx, eng, cfg, requests, chaos.DefaultSeed, chaos.DefaultRate)
			}},
	}
}

// TableIDs lists every registered table id, in paper order.
func TableIDs() []string {
	specs := Specs()
	ids := make([]string, len(specs))
	for i, s := range specs {
		ids[i] = s.ID
	}
	return ids
}

// UnknownTableError is the error a by-id lookup returns for an id the
// registry does not know; it lists every valid id.
func UnknownTableError(id string) error {
	return fmt.Errorf("bench: unknown table %q (valid ids: %s)", id, strings.Join(TableIDs(), " "))
}

// TableByID regenerates one registered table by id through eng and
// under cfg, with the given request count for the network experiments
// (0 means the paper's default).
func TableByID(ctx context.Context, eng *serve.Engine, cfg Config, id string, requests int) (*Table, error) {
	if requests <= 0 {
		requests = netsim.DefaultRequests
	}
	for _, s := range SpecsFor(cfg) {
		if s.ID == id {
			return s.Generate(ctx, eng, requests)
		}
	}
	return nil, UnknownTableError(id)
}

// Command perfbench is the repository's performance benchmark. It runs
// one named workload in its own process and prints, as the last line of
// standard output, one JSON object with the run's verdict and metrics:
//
//	bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 10 --trace 0
//
// Workloads (BENCHMARK.json says why each exists):
//
//	paper-suite    every InAll table, cold then restart-warm on a store
//	serve-mix      cashserve traffic over loopback TCP, open loop
//	cold-programs  BuildContext + first RunContext on distinct keys
//
// --trace 0 reports the same four end-to-end metrics on every workload;
// each workload defines its operation:
//
//	metric            paper-suite            serve-mix                    cold-programs
//	setup_s           fresh store + engine   server + hot-set warm-up     key set + engine
//	peak_rss_mb       VmHWM                  VmHWM                        VmHWM
//	p50_ms            restart-warm pass      request, open loop at 5%     BuildContext miss
//	                                         of the capacity
//	throughput_per_s  tables/s, cold pass    requests per CPU-second,     operations/s
//	                                         same open loop
//
// The report lines before the JSON give the workload's own figures
// (suite_cold_s, serve_tail_ms, cold_build_p50_ms, ...), each tail with
// its percentile and sample count, fail_pct and the host facts. Tails
// are reported, not gated: on a 2-CPU virtual machine, a few percent of
// host steal moves every tail of this system by a third from run to run.
//
// --trace 1 runs the same job and then replays the workload's seeded
// operations through each layer's public functions with a span around
// every call, reporting per-layer times, self times, counter deltas and
// the tracing overhead. Reports and span dumps go to .bench_build/perfbench.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// End-to-end metrics every workload reports with --trace 0. Their
// per-workload meaning is documented with each workload.
var e2eMetrics = []string{"setup_s", "peak_rss_mb", "p50_ms", "throughput_per_s"}

// Per-layer metrics every workload reports with --trace 1.
var layerMetrics = []string{
	"minic.lex_ns", "minic.parse_ns", "minic.check_ns", "minic.tokens_per_s",
	"codegen.compile_ns", "codegen.pass.rce_ns", "codegen.pass.hoist_ns",
	"codegen.pass.affine_ns", "codegen.pass.chop_ns", "codegen.program_instrs",
	"vm.new_ns", "vm.first_run_ns", "vm.run_ns", "vm.sim_mips",
	"vm.sb.compiled", "vm.sb.entries", "vm.sb.deopts", "vm.sb.instrs_retired",
	"vm.faults.step_limit", "vm.snapshot.clones",
	"core.build_ns",
	"serve.build_hit_ns", "serve.build_miss_ns", "serve.new_machine_ns",
	"serve.run_hit_ns", "serve.run_miss_ns", "serve.cache.hit_ratio",
	"serve.cache.run_hit_ratio", "serve.cache.evictions", "serve.build.coalesced",
	"serve.pool.recycled_ratio", "serve.admission.waits",
	"store.open_s", "store.disk.hits", "store.disk.misses", "store.disk.writes", "store.bytes",
	"srv.roundtrip_ns", "srv.wire_overhead_ns", "srv.frame_bytes", "srv.requests.shed",
	"loadgen.lag_ms",
	"runtime.alloc_bytes_per_op", "runtime.gc_pause_ms",
	"self.minic_ms", "self.codegen_ms", "self.vm_ms", "self.core_ms", "self.serve_ms",
	"self.store_ms", "self.srv_ms", "self.unattributed_ms",
	"trace.wall_ms", "trace.overhead_ms", "trace.overhead_pct",
}

// selfLayers are the layers the replay's spans attribute time to.
var selfLayers = []string{"minic", "codegen", "vm", "core", "serve", "store", "srv"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// note is one named figure of the human-readable report, such as the
// workload-specific metrics (suite_cold_s, serve_tail_ms, ...), with
// how it was measured.
type note struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	How   string  `json:"how,omitempty"`
}

type hostFacts struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	StealPct   float64 `json:"steal_pct"`
}

// report accumulates one run.
type report struct {
	Workload  string            `json:"workload"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Host      hostFacts         `json:"host"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Invalid   string            `json:"invalid,omitempty"`
	Notes     []note            `json:"notes"`
	Metrics   map[string]metric `json:"metrics"`
	Counters  map[string]uint64 `json:"counter_delta"`
	Exact     map[string]uint64 `json:"exact_counters,omitempty"`
	SelfTime  []selfRow         `json:"self_time,omitempty"`
}

// selfRow is one line of a self-time table.
type selfRow struct {
	Root  string  `json:"root"`
	Layer string  `json:"layer"`
	MS    float64 `json:"ms"`
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(name string, v float64, unit, how string) {
	r.Notes = append(r.Notes, note{Name: name, Value: v, Unit: unit, How: how})
}

// fail records one failed, refused or wrong-output operation.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// runCtx is what a workload gets: its parameters, the oracle, a temporary
// directory inside the checkout, and the report to fill.
type runCtx struct {
	seed    uint64
	seconds int
	trace   bool
	oracle  *oracle
	tmp     string
	rep     *report
	tr      *tracer // job spans (traced runs only; disabled otherwise)
}

var workloads = map[string]func(*runCtx) error{
	"paper-suite":   runPaperSuite,
	"serve-mix":     runServeMix,
	"cold-programs": runColdPrograms,
}

// outDir is where reports and span dumps are written, relative to the
// checkout root the benchmark runs from.
const outDir = ".bench_build/perfbench"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload to run: paper-suite, serve-mix or cold-programs")
		seed    = flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "how long the workload's timed phase measures")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		writeEx = flag.String("write-expected", "", "compute the oracle file from unchecked gcc runs and write it to this path, then exit")
	)
	flag.Parse()
	if *writeEx != "" {
		return writeExpected(*writeEx)
	}
	wl, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", "))
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if _, err := os.Stat(goldenPath); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	orc, err := loadOracle()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	rep := &report{
		Workload: *name, Seconds: *seconds, Trace: *trace == 1,
		Host: hostFacts{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Commit: commit(), Seed: *seed,
		},
		Metrics: map[string]metric{},
	}
	rc := &runCtx{seed: *seed, seconds: *seconds, trace: *trace == 1, oracle: orc, tmp: tmp, rep: rep, tr: newTracer(*trace == 1)}
	steal0, t0 := stealTicks(), time.Now()
	if err := wl(rc); err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	// Host CPU time stolen by the hypervisor while the workload ran, as a
	// share of all CPUs' time: a run on a busy host reads slower.
	rep.Host.StealPct = float64(stealTicks()-steal0) / 100 / (time.Since(t0).Seconds() * float64(runtime.NumCPU())) * 100
	rep.set("peak_rss_mb", peakRSSMB(), "MB")
	rep.note("peak_rss_mb", rep.Metrics["peak_rss_mb"].Value, "MB", "VmHWM")
	rep.note("fail_pct", failPct(rep), "%", "failed, refused or wrong-output operations / attempted")

	want := e2eMetrics
	if rc.trace {
		want = layerMetrics
	}
	units, err := declaredUnits()
	if err != nil {
		return err
	}
	out := result{Correct: rep.Failed == 0 && rep.Invalid == "", Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metric{}}
	for _, m := range want {
		v, ok := rep.Metrics[m]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", *name, m)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("%s: metric %s is %v", *name, m, v.Value)
		}
		if units[m] != v.Unit {
			return fmt.Errorf("%s: metric %s measured in %q, BENCHMARK.json declares %q", *name, m, v.Unit, units[m])
		}
		out.Metrics[m] = v
	}
	if out.Attempted < 1 {
		return fmt.Errorf("%s: no operation attempted", *name)
	}
	if err := writeReport(rc); err != nil {
		return err
	}
	printReport(rep)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// declaredUnits reads each metric's unit from BENCHMARK.json at the
// checkout root, so what the command prints cannot drift from what the
// file declares.
func declaredUnits() (map[string]string, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	units := map[string]string{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		units[m.Name] = m.Unit
	}
	return units, nil
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// commit reads the checked-out commit when the checkout is a git work
// tree; exported source trees report "unknown".
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if r, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", r))
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(b))
	}
	return ref
}

func writeReport(rc *runCtx) error {
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", rc.rep.Workload, rc.seed, btoi(rc.trace)))
	data, err := json.MarshalIndent(rc.rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if !rc.trace {
		return nil
	}
	rc.tr.mu.Lock()
	spans, err := json.Marshal(rc.tr.spans)
	rc.tr.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(base+"-spans.json", append(spans, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// printReport writes the human-readable report: host facts, the named
// figures, the self-time table and any failures.
func printReport(r *report) {
	h := r.Host
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v nproc=%d gomaxprocs=%d go=%s commit=%s steal=%.2f%%\n",
		r.Workload, h.Seed, r.Seconds, r.Trace, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.StealPct)
	for _, n := range r.Notes {
		if n.How != "" {
			fmt.Printf("  %-34s %14.6g %-6s %s\n", n.Name, n.Value, n.Unit, n.How)
		} else {
			fmt.Printf("  %-34s %14.6g %s\n", n.Name, n.Value, n.Unit)
		}
	}
	root := ""
	for _, row := range r.SelfTime {
		if row.Root != root {
			root = row.Root
			fmt.Printf("  self time under %s:\n", root)
		}
		fmt.Printf("    %-14s %12.3f ms\n", row.Layer, row.MS)
	}
	fmt.Printf("  operations attempted=%d failed=%d fail_pct=%.4g\n", r.Attempted, r.Failed, failPct(r))
	for _, f := range r.Failures {
		fmt.Printf("  FAIL %s\n", f)
	}
	if r.Invalid != "" {
		fmt.Printf("  INVALID %s\n", r.Invalid)
	}
}

func failPct(r *report) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted) * 100
}

package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"cash/internal/vm"
	"cash/internal/workload"
)

// Tier-2 superblock execution must be invisible in everything but host
// speed: simulated output, cycle and check counters, fault identity and
// violation verdicts have to match the step interpreter — the reference
// oracle, reached through vm.WithStepInterpreter — byte for byte, on the
// happy path and on every deopt path. These tests run each program on
// both engines — including runs forced to stop or fault at every single
// instruction offset inside a compiled superblock — and compare the
// complete results.

// mustBuild compiles source or fails the test.
func mustBuild(t *testing.T, source string, mode Mode, opts Options) *Artifact {
	t.Helper()
	art, err := Build(source, mode, opts)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// runRaw executes one artifact on a fresh machine without the Run
// classification layer, so faults surface as errors for comparison.
func runRaw(t *testing.T, art *Artifact, extra ...vm.Option) (*vm.Result, error) {
	t.Helper()
	m, err := art.NewMachine(extra...)
	if err != nil {
		t.Fatal(err)
	}
	return m.Run()
}

// compareTiers runs the artifact on the step interpreter and under
// tier 2 with otherwise identical machine options, and requires the
// full results — and any faults — to be identical, modulo the tier-2
// run's SB stats block. It returns the tier-2 result (nil on a fault
// that produced none).
func compareTiers(t *testing.T, label string, art *Artifact, extra ...vm.Option) *vm.Result {
	t.Helper()
	r1, e1 := runRaw(t, art, append([]vm.Option{vm.WithStepInterpreter()}, extra...)...)
	r2, e2 := runRaw(t, art, extra...)
	if fmt.Sprint(e1) != fmt.Sprint(e2) || !reflect.DeepEqual(e1, e2) {
		t.Fatalf("%s: errors differ\n step:  %v\n tier2: %v", label, e1, e2)
	}
	if (r1 == nil) != (r2 == nil) {
		t.Fatalf("%s: one tier returned no result (step=%v tier2=%v)", label, r1 != nil, r2 != nil)
	}
	if r1 == nil {
		return nil
	}
	if r1.SB != nil || r2.SB == nil {
		t.Fatalf("%s: wrong engines ran (step SB=%+v, tier2 SB=%+v)", label, r1.SB, r2.SB)
	}
	c2 := *r2
	c2.SB = nil
	if !reflect.DeepEqual(*r1, c2) {
		t.Fatalf("%s: results differ\n step:  %+v\n tier2: %+v", label, *r1, c2)
	}
	return r2
}

// TestTier2Equivalence pins the whole benchmark corpus to the step
// interpreter: every Table 1 kernel, macro application and network
// application in all three modes, a program running in sparse memory
// beyond both dense arenas, plus the detectors table's overflow probes
// under every detector, must produce identical results on both engines.
func TestTier2Equivalence(t *testing.T) {
	modes := []Mode{ModeGCC, ModeBCC, ModeCash}
	programs := func(t *testing.T, ws []workload.Workload, opts Options) {
		for _, w := range ws {
			for _, mode := range modes {
				t.Run(fmt.Sprintf("%s/%v", w.Name, mode), func(t *testing.T) {
					r2 := compareTiers(t, "", mustBuild(t, w.Source, mode, opts))
					// The tier-2 run must actually have used superblocks —
					// equivalence by never entering them proves nothing.
					if r2 == nil || r2.SB.Entries == 0 || r2.SB.InstrsRetired == 0 {
						t.Fatalf("tier-2 run retired nothing in superblocks: %+v", r2)
					}
				})
			}
		}
	}
	t.Run("kernels", func(t *testing.T) { programs(t, workload.Kernels(), Options{SegRegs: 4}) })
	t.Run("macros", func(t *testing.T) { programs(t, workload.Macros(), Options{}) })
	t.Run("network", func(t *testing.T) { programs(t, workload.NetworkApps(), Options{}) })
	t.Run("sparse", func(t *testing.T) {
		variants := []struct {
			mode  Mode
			fence bool
		}{{ModeGCC, false}, {ModeBCC, false}, {ModeCash, false}, {ModeGCC, true}}
		for _, v := range variants {
			t.Run(fmt.Sprintf("%v/fence=%v", v.mode, v.fence), func(t *testing.T) {
				art := mustBuild(t, sparseProgram, v.mode, Options{ElectricFence: v.fence})
				r2 := compareTiers(t, "", art)
				if r2 == nil || r2.SB.Entries == 0 || r2.SB.InstrsRetired == 0 {
					t.Fatalf("tier-2 run retired nothing in superblocks: %+v", r2)
				}
				m, err := art.NewMachine()
				if err != nil {
					t.Fatal(err)
				}
				// Electric Fence's paging layer maps only the top 1 MiB of
				// the stack, so there the deep recursion must end in a
				// page fault (identical on both engines, checked above).
				_, err = m.Run()
				var f *vm.Fault
				pageFault := errors.As(err, &f) && f.Kind == vm.FaultPage
				if v.fence && !pageFault || !v.fence && err != nil {
					t.Fatalf("run error = %v", err)
				}
				// The heap ends near 25 MiB, so the strided accesses above
				// the 16 MiB lo arena touch one sparse page in four there.
				if n := m.Memory().PagesAllocated(); n < 400 {
					t.Fatalf("run materialised %d sparse pages, want the heap past the lo arena sparse-backed", n)
				}
			})
		}
	})
	t.Run("probes", func(t *testing.T) {
		if testing.Short() {
			t.Skip("unchecked probes run to the 2G-instruction step limit; run without -short")
		}
		detectors := []struct {
			mode Mode
			opts Options
		}{
			{ModeGCC, Options{}},
			{ModeGCC, Options{ElectricFence: true}},
			{ModeBCC, Options{}},
			{ModeBCC, Options{UseBoundInstr: true}},
			{ModeCash, Options{}},
		}
		for _, p := range workload.DetectorProbes() {
			for _, d := range detectors {
				t.Run(fmt.Sprintf("%s/%v/fence=%v/bound=%v", p.Name, d.mode, d.opts.ElectricFence, d.opts.UseBoundInstr), func(t *testing.T) {
					t.Parallel()
					compareTiers(t, "", mustBuild(t, p.Source, d.mode, d.opts))
				})
			}
		}
	})
}

// sparseProgram runs in sparse memory on both sides of the dense arenas.
// Its 24 MB heap array runs from the low heap past the 16 MiB lo arena
// and across three 4 MiB directories of the sparse page table; each page
// is stored to twice, so the strided stores and loads take the tier-2
// sparse-word path on existing pages, the exact fallback that
// materialises them, and the arena fast path. The 300000-deep recursion
// then runs a loop whose expression temporaries are pushed and popped
// below the 2 MiB stack arena.
const sparseProgram = `
int depth(int n) {
	if (n == 0) {
		int s = 0;
		for (int i = 0; i < 2000; i++) s = s + (i * 3) * (i + 1);
		return s;
	}
	return depth(n - 1) + 1;
}
void main() {
	int *a = malloc(24000000);
	int n = 6000000;
	for (int i = 0; i < n; i = i + 4099) a[i] = i;
	for (int i = 0; i < n; i = i + 4099) a[i] = a[i] * 3 + 1;
	int s = 0;
	for (int i = 0; i < n; i = i + 4099) s = s + a[i];
	printi(s);
	printi(depth(300000));
}`

// TestTier2RangeKernels extends the equivalence sweep to the range
// kernels under the full pass pipeline: the affine pass's preheader
// blocks (guards, endpoint computations, skip detours) are new
// superblock-formation territory and must deopt identically.
func TestTier2RangeKernels(t *testing.T) {
	for _, w := range workload.RangeKernels() {
		for _, mode := range []Mode{ModeGCC, ModeBCC, ModeCash} {
			opts := Options{SegRegs: 4, Passes: []string{"rce", "hoist", "affine"}}
			label := fmt.Sprintf("%s/%v", w.Name, mode)
			r2 := compareTiers(t, label, mustBuild(t, w.Source, mode, opts))
			if r2 == nil || r2.SB.Entries == 0 || r2.SB.InstrsRetired == 0 {
				t.Fatalf("%s: tier-2 run retired nothing in superblocks: %+v", label, r2)
			}
		}
	}
}

// tier2LoopProgram is small enough to sweep exhaustively but loops
// enough that most of its execution sits inside compiled superblocks.
const tier2LoopProgram = `
int a[8];
void main() {
	for (int i = 0; i < 20; i++) {
		a[i % 8] = a[i % 8] + i;
	}
	int s = 0;
	for (int i = 0; i < 8; i++) s = s + a[i];
	printi(s);
}`

// TestTier2StepLimitEveryOffset forces a stop at every instruction
// boundary of the whole program — including every offset inside each
// compiled superblock — by sweeping the step limit one instruction at a
// time. At each limit the tier-2 engine must deopt and deliver the same
// step-limit fault with the same counters as pure step execution.
func TestTier2StepLimitEveryOffset(t *testing.T) {
	for _, mode := range []Mode{ModeGCC, ModeBCC, ModeCash} {
		art := mustBuild(t, tier2LoopProgram, mode, Options{})
		clean, err := runRaw(t, art, vm.WithStepInterpreter())
		if err != nil {
			t.Fatalf("%v clean: %v", mode, err)
		}
		total := clean.Stats.Instructions
		for limit := uint64(1); limit <= total+1; limit++ {
			compareTiers(t, fmt.Sprintf("%v limit=%d", mode, limit), art,
				vm.WithStepLimit(limit))
		}
	}
}

// TestTier2DivideFaultInLoop faults with a divide error part-way
// through a hot loop — a deopt from deep inside a superblock pass —
// and requires the identical fault and counters from both engines.
func TestTier2DivideFaultInLoop(t *testing.T) {
	const src = `
void main() {
	int d = 13;
	int x = 0;
	for (int i = 0; i < 20; i++) {
		d = d - 1;
		x = x + 100 / d;
	}
	printi(x);
}`
	for _, mode := range []Mode{ModeGCC, ModeBCC, ModeCash} {
		compareTiers(t, fmt.Sprintf("divide/%v", mode), mustBuild(t, src, mode, Options{}))
	}
}

// TestTier2ViolationVerdict drives an out-of-bound write from inside a
// hot loop. The checking modes must deliver the identical violation
// verdict from both engines, GCC the identical silent corruption.
func TestTier2ViolationVerdict(t *testing.T) {
	const src = `
int a[8];
int b[8];
void main() {
	for (int i = 0; i < 12; i++) {
		a[i] = i;
	}
	printi(b[0]);
}`
	for _, mode := range []Mode{ModeGCC, ModeBCC, ModeCash} {
		art := mustBuild(t, src, mode, Options{})
		r1, err1 := art.Run(vm.WithStepInterpreter())
		r2, err2 := art.Run()
		if fmt.Sprint(err1) != fmt.Sprint(err2) {
			t.Fatalf("%v: run errors differ: %v vs %v", mode, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if (r1.Violation == nil) != (r2.Violation == nil) {
			t.Fatalf("%v: verdicts differ: step=%v tier2=%v", mode, r1.Violation, r2.Violation)
		}
		if mode != ModeGCC && r1.Violation == nil {
			t.Fatalf("%v: out-of-bound write went undetected", mode)
		}
		if r1.Violation != nil && !reflect.DeepEqual(r1.Violation, r2.Violation) {
			t.Fatalf("%v: violation faults differ\n step:  %+v\n tier2: %+v", mode, r1.Violation, r2.Violation)
		}
		c2 := *r2.Result
		c2.SB = nil
		if !reflect.DeepEqual(*r1.Result, c2) {
			t.Fatalf("%v: results differ\n step:  %+v\n tier2: %+v", mode, *r1.Result, c2)
		}
	}
}

// TestTier2ChaosDeoptSites reuses the fault-injection sites of the
// resilience suite against tier-2 execution: every injected fault must
// manifest identically — same fault, same counters, same output — as
// under step execution.
func TestTier2ChaosDeoptSites(t *testing.T) {
	art := mustBuild(t, sitesProgram, ModeCash, Options{StepLimit: 1_000_000})
	reqAddr := art.AST.Globals[0].Addr
	garbage := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	cases := []struct {
		name  string
		extra []vm.Option
	}{
		{"clean", nil},
		{"transient-alloc", []vm.Option{vm.WithTransientAllocFault()}},
		{"descriptor-corruption", []vm.Option{vm.WithDescriptorCorruption(), vm.WithLDTAudit()}},
		{"shadow-corruption", []vm.Option{vm.WithShadowCorruption(), vm.WithLDTAudit()}},
		{"poke", []vm.Option{vm.WithPoke(reqAddr, garbage)}},
		{"page-unmap", []vm.Option{vm.WithPaging(64 << 20), vm.WithPageUnmap(reqAddr)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			compareTiers(t, tc.name, art, tc.extra...)
		})
	}
}

// TestTier2DumpSuperblocks pins the compiled form of the sweep
// program's hot loops: region selection and trace layout only change
// for a reason, and the dump is the first thing a reader sees of the
// engine.
func TestTier2DumpSuperblocks(t *testing.T) {
	art := mustBuild(t, tier2LoopProgram, ModeGCC, Options{})
	dump := art.DumpSuperblocks()
	if dump == "" {
		t.Fatal("empty superblock dump")
	}
	t.Logf("\n%s", dump)
	if _, err := art.Run(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkDetectorRunaway runs the detectors table's unchecked gcc
// stack probe once to the default step limit: its clobbered frame sends
// the stack climbing through sparse memory above the lo arena, so this
// is the host cost of the sparse store under tier 2. It reports the
// simulated instruction rate.
func BenchmarkDetectorRunaway(b *testing.B) {
	if testing.Short() {
		b.Skip("runs 2G simulated instructions; run without -short")
	}
	var probe workload.Workload
	for _, p := range workload.DetectorProbes() {
		if p.Name == "probe-stack" {
			probe = p
		}
	}
	art, err := Build(probe.Source, ModeGCC, Options{})
	if err != nil {
		b.Fatal(err)
	}
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := art.NewMachine()
		if err != nil {
			b.Fatal(err)
		}
		res, err := m.Run()
		var f *vm.Fault
		if !errors.As(err, &f) || f.Kind != vm.FaultStepLimit {
			b.Fatalf("probe-stack under gcc: got %v, want the step-limit fault", err)
		}
		instrs += res.Stats.Instructions
	}
	b.ReportMetric(float64(instrs)/1e6/b.Elapsed().Seconds(), "Minstr/s")
}

package codegen

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cash/internal/vm"
	"cash/internal/workload"
)

// Differential testing: generate random (bound-respecting) mini-C
// programs and require that GCC, BCC and Cash produce byte-identical
// output. Because the three back ends share nothing but the front end
// and the ISA, agreement across hundreds of programs is strong evidence
// that the instrumentation (fat pointers, segment set-up, spill
// fall-backs, metadata propagation) never changes program semantics.

// progGen builds random programs from a seeded source so failures are
// reproducible by seed.
type progGen struct {
	r       *rand.Rand
	sb      strings.Builder
	arrays  []genArray // declared global arrays
	scalars []string   // declared global scalars
	nextID  int
}

type genArray struct {
	name string
	size int
	char bool
}

func (g *progGen) id(prefix string) string {
	g.nextID++
	return fmt.Sprintf("%s%d", prefix, g.nextID)
}

func (g *progGen) pick(names []string) string {
	return names[g.r.Intn(len(names))]
}

// expr produces an arithmetic expression over the loop variable and
// global scalars; depth bounds recursion.
func (g *progGen) expr(loopVar string, depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(4) {
		case 0:
			return fmt.Sprintf("%d", g.r.Intn(200)-100)
		case 1:
			return loopVar
		case 2:
			if len(g.scalars) > 0 {
				return g.pick(g.scalars)
			}
			return loopVar
		default:
			// In-bounds array read.
			if len(g.arrays) > 0 {
				a := g.arrays[g.r.Intn(len(g.arrays))]
				return fmt.Sprintf("%s[%s %% %d]", a.name, loopVar, a.size)
			}
			return fmt.Sprintf("%d", g.r.Intn(50))
		}
	}
	x := g.expr(loopVar, depth-1)
	y := g.expr(loopVar, depth-1)
	switch g.r.Intn(8) {
	case 0:
		return fmt.Sprintf("(%s + %s)", x, y)
	case 1:
		return fmt.Sprintf("(%s - %s)", x, y)
	case 2:
		return fmt.Sprintf("(%s * %s)", x, y)
	case 3:
		// Division by a non-zero constant only.
		return fmt.Sprintf("(%s / %d)", x, g.r.Intn(9)+1)
	case 4:
		return fmt.Sprintf("(%s %% %d)", x, g.r.Intn(9)+1)
	case 5:
		return fmt.Sprintf("(%s & %s)", x, y)
	case 6:
		return fmt.Sprintf("(%s ^ %s)", x, y)
	default:
		return fmt.Sprintf("(%s >> %d)", x, g.r.Intn(5))
	}
}

// cond produces a comparison usable in if/while conditions.
func (g *progGen) cond(loopVar string) string {
	ops := []string{"<", "<=", ">", ">=", "==", "!="}
	c := fmt.Sprintf("%s %s %d", g.expr(loopVar, 1), g.pick(ops), g.r.Intn(60)-30)
	if g.r.Intn(4) == 0 {
		c = fmt.Sprintf("%s && %s %s %d", c, loopVar, g.pick(ops[:4]), g.r.Intn(40))
	}
	return c
}

// loopBody emits statements inside a loop over loopVar.
func (g *progGen) loopBody(loopVar string, indent string, depth int) {
	n := g.r.Intn(4) + 1
	for s := 0; s < n; s++ {
		switch g.r.Intn(6) {
		case 0, 1: // in-bounds array write
			if len(g.arrays) > 0 {
				a := g.arrays[g.r.Intn(len(g.arrays))]
				fmt.Fprintf(&g.sb, "%s%s[%s %% %d] %s %s;\n",
					indent, a.name, loopVar, a.size,
					g.pick([]string{"=", "+=", "-=", "^="}), g.expr(loopVar, 2))
			}
		case 2: // scalar update
			if len(g.scalars) > 0 {
				fmt.Fprintf(&g.sb, "%s%s %s %s;\n", indent,
					g.pick(g.scalars), g.pick([]string{"=", "+=", "*="}),
					g.expr(loopVar, 2))
			}
		case 3: // conditional
			fmt.Fprintf(&g.sb, "%sif (%s) {\n", indent, g.cond(loopVar))
			g.loopBody(loopVar, indent+"\t", 0)
			fmt.Fprintf(&g.sb, "%s}\n", indent)
		case 4: // pointer walk over an array
			if len(g.arrays) > 0 && depth > 0 {
				a := g.arrays[g.r.Intn(len(g.arrays))]
				p := g.id("p")
				ty := "int"
				if a.char {
					ty = "char"
				}
				fmt.Fprintf(&g.sb, "%s{\n", indent)
				fmt.Fprintf(&g.sb, "%s\t%s *%s = %s;\n", indent, ty, p, a.name)
				fmt.Fprintf(&g.sb, "%s\tfor (int w = 0; w < %d; w++) { acc += *%s; %s++; }\n",
					indent, a.size, p, p)
				fmt.Fprintf(&g.sb, "%s}\n", indent)
			}
		default: // nested loop
			if depth > 0 {
				inner := g.id("j")
				fmt.Fprintf(&g.sb, "%sfor (int %s = 0; %s < %d; %s++) {\n",
					indent, inner, inner, g.r.Intn(6)+2, inner)
				g.loopBody(inner, indent+"\t", depth-1)
				fmt.Fprintf(&g.sb, "%s}\n", indent)
			}
		}
	}
	if g.r.Intn(3) == 0 {
		fmt.Fprintf(&g.sb, "%sacc += %s;\n", indent, g.expr(loopVar, 2))
	}
}

// generate produces one complete program.
func (g *progGen) generate() string {
	g.sb.Reset()
	g.sb.WriteString("// generated by difftest\nint acc;\n")
	nArrays := g.r.Intn(4) + 2
	for i := 0; i < nArrays; i++ {
		a := genArray{
			name: g.id("arr"),
			size: g.r.Intn(24) + 4,
			char: g.r.Intn(4) == 0,
		}
		ty := "int"
		if a.char {
			ty = "char"
		}
		fmt.Fprintf(&g.sb, "%s %s[%d];\n", ty, a.name, a.size)
		g.arrays = append(g.arrays, a)
	}
	nScalars := g.r.Intn(3) + 1
	for i := 0; i < nScalars; i++ {
		s := g.id("v")
		fmt.Fprintf(&g.sb, "int %s = %d;\n", s, g.r.Intn(40)-20)
		g.scalars = append(g.scalars, s)
	}

	// A helper function operating on an array parameter.
	fmt.Fprintf(&g.sb, `
int sumRange(int *p, int n) {
	int s = 0;
	for (int i = 0; i < n; i++) s += p[i];
	return s;
}
`)
	// A helper with a local array (exercises per-call segment churn).
	fmt.Fprintf(&g.sb, `
int scratch(int seed) {
	int buf[8];
	for (int i = 0; i < 8; i++) buf[i] = seed * i;
	int s = 0;
	for (int i = 0; i < 8; i++) s += buf[i];
	return s;
}
`)

	g.sb.WriteString("void main() {\n")
	nLoops := g.r.Intn(3) + 1
	for l := 0; l < nLoops; l++ {
		lv := g.id("i")
		fmt.Fprintf(&g.sb, "\tfor (int %s = 0; %s < %d; %s++) {\n",
			lv, lv, g.r.Intn(12)+3, lv)
		g.loopBody(lv, "\t\t", 1)
		fmt.Fprintf(&g.sb, "\t}\n")
	}
	// Exercise calls and pointer arguments.
	if len(g.arrays) > 0 {
		a := g.arrays[g.r.Intn(len(g.arrays))]
		if !a.char {
			fmt.Fprintf(&g.sb, "\tacc += sumRange(%s, %d);\n", a.name, a.size)
			if a.size > 2 {
				fmt.Fprintf(&g.sb, "\tacc += sumRange(&%s[%d], %d);\n",
					a.name, a.size/2, a.size-a.size/2)
			}
		}
	}
	fmt.Fprintf(&g.sb, "\tacc += scratch(%d);\n", g.r.Intn(9)+1)
	// Heap usage.
	fmt.Fprintf(&g.sb, `	int *h = malloc(%d);
	for (int k = 0; k < %d; k++) h[k] = k * acc;
	for (int k = 0; k < %d; k++) acc ^= h[k];
	free(h);
`, 4*16, 16, 16)
	for _, s := range g.scalars {
		fmt.Fprintf(&g.sb, "\tprinti(%s);\n", s)
	}
	g.sb.WriteString("\tprinti(acc);\n}\n")
	return g.sb.String()
}

func newProgGen(seed int64) *progGen {
	return &progGen{r: rand.New(rand.NewSource(seed))}
}

// TestDifferentialRandomPrograms generates random programs and requires
// identical output across all compiler modes and segment-register
// budgets.
func TestDifferentialRandomPrograms(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 20
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			src := newProgGen(int64(seed)).generate()
			var ref []int32
			type variant struct {
				name string
				cfg  Config
			}
			variants := []variant{
				{name: "gcc", cfg: Config{Mode: vm.ModeGCC}},
				{name: "bcc", cfg: Config{Mode: vm.ModeBCC}},
				{name: "mpx", cfg: Config{Mode: vm.ModeMPX}},
				{name: "cash2", cfg: Config{Mode: vm.ModeCash, SegRegs: DefaultSegRegs[:2]}},
				{name: "cash3", cfg: Config{Mode: vm.ModeCash}},
				{name: "cash4", cfg: Config{Mode: vm.ModeCash, SegRegs: SegRegsWithSS}},
			}
			// Every pass combination must preserve observable output on
			// non-faulting programs — for software-checked BCC, the
			// bounds-table MPX strategy, and Cash (whose spilled
			// references take the software path).
			for _, passes := range [][]string{{"rce"}, {"hoist"}, {"rce", "hoist"}, {"affine"}, {"chop"}, {"rce", "hoist", "affine", "chop"}} {
				suffix := "+" + strings.Join(passes, "+")
				variants = append(variants,
					variant{name: "bcc" + suffix, cfg: Config{Mode: vm.ModeBCC, Passes: passes}},
					variant{name: "mpx" + suffix, cfg: Config{Mode: vm.ModeMPX, Passes: passes}},
					variant{name: "cash2" + suffix, cfg: Config{Mode: vm.ModeCash, SegRegs: DefaultSegRegs[:2], Passes: passes}},
				)
			}
			for _, v := range variants {
				res, err := runMode(t, src, v.cfg, vm.WithStepInterpreter())
				if err != nil {
					t.Fatalf("%s: %v\nprogram:\n%s", v.name, err, src)
				}
				// Tier dimension: the same variant through the tier-2
				// superblock engine must reproduce the step result
				// completely — output, cycles, every counter.
				res2, err2 := runMode(t, src, v.cfg)
				if err2 != nil {
					t.Fatalf("%s tier2: %v\nprogram:\n%s", v.name, err2, src)
				}
				c2 := *res2
				c2.SB = nil
				if !reflect.DeepEqual(*res, c2) {
					t.Fatalf("%s: tier-2 result diverged from step execution\n step:  %+v\n tier2: %+v\nprogram:\n%s",
						v.name, *res, c2, src)
				}
				if v.name == "gcc" {
					ref = res.Output
					continue
				}
				if len(res.Output) != len(ref) {
					t.Fatalf("%s: output len %d vs gcc %d\nprogram:\n%s",
						v.name, len(res.Output), len(ref), src)
				}
				for i := range ref {
					if res.Output[i] != ref[i] {
						t.Fatalf("%s: output[%d] = %d, gcc %d\nprogram:\n%s",
							v.name, i, res.Output[i], ref[i], src)
					}
				}
			}
		})
	}
}

// TestDifferentialDetection generates programs with one planted
// out-of-bounds write inside a loop and requires that both checkers
// catch it while GCC does not necessarily fail.
func TestDifferentialDetection(t *testing.T) {
	for seed := 0; seed < 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(int64(seed)))
			size := r.Intn(24) + 4
			over := size + r.Intn(8) // first out-of-bounds index reached
			src := fmt.Sprintf(`
int a[%d];
int pad[64];
void main() {
	for (int i = 0; i <= %d; i++) {
		a[i] = i;
	}
	printi(a[0]);
}`, size, over)
			// The verdict — violation detected — must hold for every
			// checker and every pass combination. Only the verdict is
			// compared: hoisting legitimately traps before the loop
			// instead of at the offending iteration, so faulting
			// programs may differ in output prefix, never in outcome.
			for _, mode := range []vm.Mode{vm.ModeBCC, vm.ModeCash, vm.ModeMPX} {
				for _, passes := range [][]string{nil, {"rce"}, {"hoist"}, {"rce", "hoist"}, {"affine"}, {"chop"}, {"rce", "hoist", "affine", "chop"}} {
					_, err := runMode(t, src, Config{Mode: mode, Passes: passes}, vm.WithStepInterpreter())
					f, ok := err.(*vm.Fault)
					if !ok || !f.IsBoundViolation() {
						t.Fatalf("%v passes=%v: planted overflow not caught: %v\nprogram:\n%s",
							mode, passes, err, src)
					}
					// The tier-2 engine must deliver the identical fault:
					// same kind, selector, offset, detail.
					_, err2 := runMode(t, src, Config{Mode: mode, Passes: passes})
					if !reflect.DeepEqual(err, err2) {
						t.Fatalf("%v passes=%v: tier-2 verdict differs\n step:  %v\n tier2: %v\nprogram:\n%s",
							mode, passes, err, err2, src)
					}
				}
			}
		})
	}
}

// TestDifferentialKernelsMPX runs the six Table 1 kernels, the range
// kernels and the stencil kernels under the MPX bounds-table strategy —
// plain and with the full pass pipeline — and requires output identical
// to unoptimized GCC. This is the acceptance gate for the mpx strategy.
func TestDifferentialKernelsMPX(t *testing.T) {
	ws := append(workload.Kernels(), workload.RangeKernels()...)
	ws = append(ws, workload.StencilKernels()...)
	for _, w := range ws {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			ref := mustRunMode(t, w.Source, Config{Mode: vm.ModeGCC}).Output
			if len(ref) == 0 {
				t.Fatal("kernel printed nothing")
			}
			for _, passes := range [][]string{nil, {"rce", "hoist", "affine", "chop"}} {
				res, err := runMode(t, w.Source, Config{Mode: vm.ModeMPX, Passes: passes})
				if err != nil {
					t.Fatalf("mpx passes=%v: %v", passes, err)
				}
				if !reflect.DeepEqual(res.Output, ref) {
					t.Fatalf("mpx passes=%v: output %v, gcc %v", passes, res.Output, ref)
				}
			}
		})
	}
}

// TestDifferentialStencilKernels runs the stencil kernels — the
// straight-line neighbouring-reference programs the chop pass targets —
// through the mode x pass x tier matrix and requires output identical
// to unoptimized GCC.
func TestDifferentialStencilKernels(t *testing.T) {
	for _, w := range workload.StencilKernels() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			ref := mustRunMode(t, w.Source, Config{Mode: vm.ModeGCC}).Output
			if len(ref) == 0 {
				t.Fatal("kernel printed nothing")
			}
			for _, mode := range []vm.Mode{vm.ModeGCC, vm.ModeBCC, vm.ModeCash, vm.ModeMPX} {
				for _, passes := range [][]string{nil, {"chop"}, {"rce", "chop"}, {"rce", "hoist", "affine", "chop"}} {
					cfg := Config{Mode: mode, Passes: passes}
					res, err := runMode(t, w.Source, cfg, vm.WithStepInterpreter())
					if err != nil {
						t.Fatalf("%v passes=%v: %v", mode, passes, err)
					}
					res2, err2 := runMode(t, w.Source, cfg)
					if err2 != nil {
						t.Fatalf("%v passes=%v tier2: %v", mode, passes, err2)
					}
					c2 := *res2
					c2.SB = nil
					if !reflect.DeepEqual(*res, c2) {
						t.Fatalf("%v passes=%v: tier-2 result diverged\n step:  %+v\n tier2: %+v",
							mode, passes, *res, c2)
					}
					if !reflect.DeepEqual(res.Output, ref) {
						t.Fatalf("%v passes=%v: output %v, gcc %v", mode, passes, res.Output, ref)
					}
				}
			}
		})
	}
}

// TestDifferentialRangeKernels runs the range kernels — the computed-
// index programs the affine pass targets — through the full mode x pass
// x tier matrix and requires output identical to unoptimized GCC.
func TestDifferentialRangeKernels(t *testing.T) {
	for _, w := range workload.RangeKernels() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			ref := mustRunMode(t, w.Source, Config{Mode: vm.ModeGCC}).Output
			if len(ref) == 0 {
				t.Fatal("kernel printed nothing")
			}
			for _, mode := range []vm.Mode{vm.ModeGCC, vm.ModeBCC, vm.ModeCash, vm.ModeMPX} {
				for _, passes := range [][]string{nil, {"rce"}, {"hoist"}, {"affine"}, {"chop"}, {"rce", "hoist"}, {"rce", "hoist", "affine", "chop"}} {
					cfg := Config{Mode: mode, Passes: passes}
					res, err := runMode(t, w.Source, cfg, vm.WithStepInterpreter())
					if err != nil {
						t.Fatalf("%v passes=%v: %v", mode, passes, err)
					}
					res2, err2 := runMode(t, w.Source, cfg)
					if err2 != nil {
						t.Fatalf("%v passes=%v tier2: %v", mode, passes, err2)
					}
					c2 := *res2
					c2.SB = nil
					if !reflect.DeepEqual(*res, c2) {
						t.Fatalf("%v passes=%v: tier-2 result diverged\n step:  %+v\n tier2: %+v",
							mode, passes, *res, c2)
					}
					if !reflect.DeepEqual(res.Output, ref) {
						t.Fatalf("%v passes=%v: output %v, gcc %v", mode, passes, res.Output, ref)
					}
				}
			}
		})
	}
}

package main

import (
	"bufio"
	_ "embed"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"strconv"
	"strings"

	"cash/internal/workload"
)

// The benchmark pins its strategy and pass lists rather than reading
// the registries, so a strategy or pass added later does not silently
// change what a workload runs.
var (
	strategies = []string{"gcc", "bcc", "cash", "mpx"}
	allPasses  = []string{"rce", "hoist", "affine", "chop"}
)

// passPrefixes returns the pass-pipeline prefixes: none, rce,
// rce+hoist, rce+hoist+affine, all four.
func passPrefixes() [][]string {
	out := make([][]string, len(allPasses)+1)
	for i := range out {
		out[i] = allPasses[:i:i]
	}
	return out
}

// program is one mini-C source and the key of its line in the oracle.
type program struct {
	key string
	src string
}

// generator is a size-parameterised workload generator; each size is a
// distinct program.
type generator struct {
	name  string
	sizes []int
	mk    func(n int) workload.Workload
}

func stepRange(lo, hi, step int) []int {
	var out []int
	for n := lo; n <= hi; n += step {
		out = append(out, n)
	}
	return out
}

// generators feed serve-mix's unique requests. Sizes stay small so each
// run is well under a millisecond of simulation: a unique request's cost
// is compile plus machine preparation, not execution.
var generators = []generator{
	{"matmul", stepRange(3, 12, 1), workload.MatMul},
	{"gaussian", stepRange(3, 16, 1), workload.Gaussian},
	{"fft2d", []int{2, 4, 8}, workload.FFT2D},
	{"smooth", stepRange(8, 104, 8), func(n int) workload.Workload { return workload.Smooth(n, 2) }},
	{"jacobi2d", stepRange(4, 14, 1), func(n int) workload.Workload { return workload.Jacobi2D(n, 2) }},
	{"wave1d", stepRange(8, 104, 8), func(n int) workload.Workload { return workload.Wave1D(n, 2) }},
	{"trisolve", stepRange(3, 26, 1), workload.TriSolve},
	{"banded", stepRange(8, 56, 4), func(n int) workload.Workload { return workload.Banded(n, 4) }},
	{"stridedconv", stepRange(8, 104, 8), workload.StridedConv},
	{"gather", stepRange(16, 256, 16), workload.Gather},
}

// generatorPrograms lists every generator × size program.
func generatorPrograms() []program {
	var out []program
	for _, g := range generators {
		for _, n := range g.sizes {
			out = append(out, program{key: genKey(g.name, n), src: g.mk(n).Source})
		}
	}
	return out
}

func genKey(name string, n int) string { return fmt.Sprintf("gen:%s/%d", name, n) }

// corpusPrograms lists cold-programs' short-running corpus: the network
// applications, the range and stencil kernels, and the Table 1 kernels
// at small sizes.
func corpusPrograms() []program {
	ws := workload.NetworkApps()
	ws = append(ws, workload.RangeKernels()...)
	ws = append(ws, workload.StencilKernels()...)
	ws = append(ws,
		workload.MatMul(8), workload.Gaussian(8), workload.FFT2D(8),
		workload.EdgeDetect(16, 12), workload.VolumeRender(6, 8, 6), workload.SVD(12, 8, 3))
	out := make([]program, len(ws))
	for i, w := range ws {
		out[i] = program{key: "prog:" + w.Name, src: w.Source}
	}
	return out
}

// Overflow probes, one per memory region. Each overflows its buffer by
// one or more elements; the verdict per strategy is in the oracle.
var probes = []program{
	{key: "heap", src: `
void main() {
	char *b = malloc(24);
	for (int i = 0; i < 40; i++) b[i] = 'A';
}`},
	{key: "global", src: `
int g[8];
void main() { for (int i = 0; i <= 8; i++) g[i] = i; }`},
	{key: "stack", src: `
void smash() {
	int b[8];
	for (int i = 0; i <= 8; i++) b[i] = i;
}
void main() { smash(); }`},
}

// Probe step limits are probeStepBase plus the probe's sequence number,
// so every probe request is a distinct cache key and really runs.
const probeStepBase = 50000

// Request classes.
const (
	classHot    = "hot"
	classUnique = "unique"
	classProbe  = "probe"
	classCold   = "cold"
)

// request is one operation of a workload: build (and run) src under
// mode with the given passes and step limit.
type request struct {
	Class     string   `json:"class"`
	Key       string   `json:"key"` // oracle key; the probe name for probes
	Mode      string   `json:"mode"`
	Passes    []string `json:"passes,omitempty"`
	StepLimit uint64   `json:"step_limit,omitempty"`
	src       string
}

// newRNG seeds the generator for one workload: the draw is a pure
// function of (workload, seed).
func newRNG(workloadName string, seed uint64) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workloadName))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// product expands programs × strategies × pass prefixes.
func product(progs []program, prefixes [][]string) []request {
	var out []request
	for _, p := range progs {
		for _, m := range strategies {
			for _, ps := range prefixes {
				out = append(out, request{Key: p.key, Mode: m, Passes: ps, src: p.src})
			}
		}
	}
	return out
}

// Serve-mix shares, in percent of requests.
const (
	hotPct    = 80
	uniquePct = 15 // the rest are probes
)

// hotPerGen is how many hot keys each generator contributes. With ten
// generators the hot set has 20 keys, one per strategy × pass-prefix
// pair: every compile path the unique requests take is also served
// from the run cache, and 20 small artifacts sit far inside the default
// cache budget, so the unique stream never evicts them.
const hotPerGen = 2

// mixSource generates serve-mix's request sequence. The sequence is a
// pure function of the seed; how much of it a run consumes depends on
// how long the run lasts.
type mixSource struct {
	rng     *rand.Rand
	hot     []request
	uniques []request // a seeded permutation, consumed in order and then reused with a nonce
	nextU   int
	probes  int
}

func newMixSource(seed uint64) *mixSource {
	rng := newRNG("serve-mix", seed)
	prefixes := passPrefixes()
	// Hot slot s runs strategy s mod 4 with pass prefix s mod 5, so the
	// 20 slots cover every pair once, at sizes spread evenly over each
	// generator's range. The hot set is the same for every seed, so
	// warming it in set-up costs the same on every seed.
	var hot []request
	isHot := map[string]bool{}
	for gi, g := range generators {
		for j := 0; j < hotPerGen; j++ {
			s := gi*hotPerGen + j
			n := g.sizes[(j+1)*len(g.sizes)/(hotPerGen+1)]
			r := request{Class: classHot, Key: genKey(g.name, n), Mode: strategies[s%len(strategies)],
				Passes: prefixes[s%len(prefixes)], src: g.mk(n).Source}
			hot = append(hot, r)
			isHot[cacheKey(r)] = true
		}
	}
	var uniques []request
	for _, r := range product(generatorPrograms(), prefixes) {
		if !isHot[cacheKey(r)] {
			uniques = append(uniques, r)
		}
	}
	rng.Shuffle(len(uniques), func(i, j int) { uniques[i], uniques[j] = uniques[j], uniques[i] })
	return &mixSource{rng: rng, hot: hot, uniques: uniques}
}

// cacheKey identifies what the engine caches a request under.
func cacheKey(r request) string {
	return fmt.Sprintf("%s\x00%s\x00%d\x00%s", r.src, r.Mode, r.StepLimit, strings.Join(r.Passes, ","))
}

// next draws the next request of the sequence.
func (m *mixSource) next() request {
	x := m.rng.IntN(100)
	switch {
	case x < hotPct:
		return m.hot[m.rng.IntN(len(m.hot))]
	case x < hotPct+uniquePct:
		r := m.uniques[m.nextU%len(m.uniques)]
		if round := m.nextU / len(m.uniques); round > 0 {
			// Past the end of the pool a comment makes the source, and so
			// the cache key, new again; the output is unchanged.
			r.src += fmt.Sprintf("\n// round %d\n", round)
		}
		m.nextU++
		r.Class = classUnique
		return r
	default:
		p := probes[m.rng.IntN(len(probes))]
		r := request{Class: classProbe, Key: p.key, Mode: strategies[m.rng.IntN(len(strategies))],
			StepLimit: probeStepBase + uint64(m.probes), src: p.src}
		m.probes++
		return r
	}
}

// coldKeys is cold-programs' key set: every corpus program × strategy
// × {no passes, all passes}.
func coldKeys() []request {
	keys := product(corpusPrograms(), [][]string{nil, allPasses})
	for i := range keys {
		keys[i].Class = classCold
	}
	return keys
}

// coldRound returns the next round's operations: the key set in a
// seeded order.
func coldRound(rng *rand.Rand) []request {
	keys := coldKeys()
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

//go:embed expected.txt
var expectedText string

// oracle holds the committed expected outputs: one line per program
// (output does not depend on strategy or passes) and one verdict per
// probe × strategy.
type oracle struct {
	outputs  map[string][]int32
	verdicts map[string]string // "probe/strategy" -> verdict
}

func loadOracle() (*oracle, error) {
	o := &oracle{outputs: map[string][]int32{}, verdicts: map[string]string{}}
	sc := bufio.NewScanner(strings.NewReader(expectedText))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch {
		case f[0] == "out" && len(f) == 3:
			var vals []int32
			if f[2] != "-" {
				for _, s := range strings.Split(f[2], ",") {
					v, err := strconv.ParseInt(s, 10, 32)
					if err != nil {
						return nil, fmt.Errorf("expected.txt:%d: %v", n, err)
					}
					vals = append(vals, int32(v))
				}
			}
			o.outputs[f[1]] = vals
		case f[0] == "probe" && len(f) == 4:
			o.verdicts[f[1]+"/"+f[2]] = f[3]
		default:
			return nil, fmt.Errorf("expected.txt:%d: malformed line %q", n, line)
		}
	}
	return o, sc.Err()
}

// formatOutput renders an output vector as an oracle field.
func formatOutput(out []int32) string {
	if len(out) == 0 {
		return "-"
	}
	s := make([]string, len(out))
	for i, v := range out {
		s[i] = strconv.Itoa(int(v))
	}
	return strings.Join(s, ",")
}

// checkOutput reports whether a clean run's output matches the oracle.
func (o *oracle) checkOutput(key string, out []int32) error {
	want, ok := o.outputs[key]
	if !ok {
		return fmt.Errorf("%s: no expected output", key)
	}
	if formatOutput(out) != formatOutput(want) {
		return fmt.Errorf("%s: output %s, want %s", key, formatOutput(out), formatOutput(want))
	}
	return nil
}

// checkVerdict reports whether a probe's verdict matches the oracle.
func (o *oracle) checkVerdict(probe, mode, got string) error {
	want, ok := o.verdicts[probe+"/"+mode]
	if !ok {
		return fmt.Errorf("probe %s/%s: no expected verdict", probe, mode)
	}
	if got != want {
		return fmt.Errorf("probe %s/%s: verdict %s, want %s", probe, mode, got, want)
	}
	return nil
}

package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

func mixDraw(seed uint64, n int) []request {
	src := newMixSource(seed)
	out := make([]request, n)
	for i := range out {
		out[i] = src.next()
	}
	return out
}

func coldDraw(seed uint64, rounds int) []request {
	rng := newRNG("cold-programs", seed)
	var out []request
	for i := 0; i < rounds; i++ {
		out = append(out, coldRound(rng)...)
	}
	return out
}

// sameDraw compares two request sequences, sources included.
func sameDraw(a, b []request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) || a[i].src != b[i].src {
			return false
		}
	}
	return true
}

// The request sequence of every workload is a pure function of
// (workload, seed): the same seed draws the same sequence, another
// seed a different one.
func TestSeededGeneration(t *testing.T) {
	draws := map[string]func(seed uint64) []request{
		"serve-mix":     func(s uint64) []request { return mixDraw(s, 5000) },
		"cold-programs": func(s uint64) []request { return coldDraw(s, 3) },
		"paper-suite":   suiteReplayOps,
	}
	for name, draw := range draws {
		if !sameDraw(draw(7), draw(7)) {
			t.Errorf("%s: seed 7 drew two different sequences", name)
		}
		if sameDraw(draw(7), draw(8)) {
			t.Errorf("%s: seeds 7 and 8 drew the same sequence", name)
		}
	}
}

// Serve-mix's shares are close to 80/15/5, the hot set holds every
// strategy × pass-prefix pair once, unique requests never repeat a
// cache key (a hot one included), and past the end of the pool they
// stay unique.
func TestServeMixShares(t *testing.T) {
	seq := mixDraw(1, 40000)
	count := map[string]int{}
	seen := map[string]bool{}
	pairs := map[string]bool{}
	for _, r := range newMixSource(1).hot {
		seen[cacheKey(r)] = true
		pairs[r.Mode+"/"+formatPasses(r.Passes)] = true
	}
	if want := len(strategies) * len(passPrefixes()); len(pairs) != want || len(seen) != want {
		t.Errorf("hot set has %d keys over %d strategy × prefix pairs, want %d of each", len(seen), len(pairs), want)
	}
	for _, r := range seq {
		count[r.Class]++
		if r.Class != classUnique {
			continue
		}
		key := cacheKey(r)
		if seen[key] {
			t.Fatalf("unique request %s/%s %v repeated", r.Key, r.Mode, r.Passes)
		}
		seen[key] = true
	}
	for class, want := range map[string]float64{classHot: 0.80, classUnique: 0.15, classProbe: 0.05} {
		got := float64(count[class]) / float64(len(seq))
		if got < want-0.01 || got > want+0.01 {
			t.Errorf("%s share %.3f, want %.2f", class, got, want)
		}
	}
	if count[classUnique] <= len(newMixSource(1).uniques) {
		t.Fatalf("draw too short to pass the end of the unique pool")
	}
}

func formatPasses(p []string) string {
	b, _ := json.Marshal(p)
	return string(b)
}

// Every program of the oracle gives its expected output under every
// strategy and pass pipeline the workloads use, and every probe its
// expected verdict: the oracle does not depend on strategy or passes.
func TestOracleHoldsForEveryStrategyAndPipeline(t *testing.T) {
	orc, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	check := func(reqs []request) {
		for _, r := range reqs {
			res, err := runLocal(r.src, r.Mode, r.Passes, 0)
			if err != nil {
				t.Errorf("%s/%s %v: %v", r.Key, r.Mode, r.Passes, err)
				continue
			}
			if res.Violation != nil {
				t.Errorf("%s/%s %v: spurious violation %v", r.Key, r.Mode, r.Passes, res.Violation)
				continue
			}
			if err := orc.checkOutput(r.Key, res.Output); err != nil {
				t.Errorf("%s %v: %v", r.Mode, r.Passes, err)
			}
		}
	}
	check(product(generatorPrograms(), passPrefixes()))
	check(coldKeys())
	check(suiteReplayOps(1))
	for _, p := range probes {
		for _, m := range strategies {
			for _, pre := range passPrefixes() {
				res, err := runLocal(p.src, m, pre, probeStepBase)
				if err := orc.checkVerdict(p.key, m, localVerdict(res != nil && res.Violation != nil, err)); err != nil {
					t.Errorf("%v: %v", pre, err)
				}
			}
		}
	}
}

// BENCHMARK.json names exactly the metrics the command prints.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		out := make([]string, len(xs))
		for i, x := range xs {
			out[i] = x.Name
		}
		return out
	}
	if got := names(spec.EndToEnd); !reflect.DeepEqual(got, e2eMetrics) {
		t.Errorf("end_to_end %v, command prints %v", got, e2eMetrics)
	}
	if got := names(spec.PerLayer); !reflect.DeepEqual(got, layerMetrics) {
		t.Errorf("per_layer %v, command prints %v", got, layerMetrics)
	}
	for _, w := range names(spec.Workloads) {
		if _, ok := workloads[w]; !ok {
			t.Errorf("workload %s is not implemented", w)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, command has %d", len(spec.Workloads), len(workloads))
	}
}

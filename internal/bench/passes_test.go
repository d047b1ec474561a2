package bench

import (
	"context"
	"os"
	"testing"

	"cash/internal/serve"
	"cash/internal/workload"
)

// TestGoldenAblationPasses pins the pass-ablation table byte-for-byte.
// Regenerate only for a change that is supposed to alter the passes:
//
//	go run ./cmd/cashbench -table ablation-passes > internal/bench/testdata/golden_ablation_passes.txt
func TestGoldenAblationPasses(t *testing.T) {
	want, err := os.ReadFile("testdata/golden_ablation_passes.txt")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ablationPasses(context.Background(), serve.NewEngine(serve.EngineConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Format(); got != string(want) {
		t.Fatalf("ablation-passes drifted from golden\n%s", firstDiff(got, string(want)))
	}
}

// TestPassesImproveKernels is the acceptance bar for the optimizing back
// end: with rce+hoist, at least 3 of the 6 numerical kernels must
// execute strictly fewer software checks AND strictly fewer cycles.
func TestPassesImproveKernels(t *testing.T) {
	ctx := context.Background()
	eng := serve.NewEngine(serve.EngineConfig{})
	improved := 0
	for _, w := range workload.Kernels() {
		off, err := measurePasses(ctx, eng, w, nil)
		if err != nil {
			t.Fatalf("%s off: %v", w.Name, err)
		}
		on, err := measurePasses(ctx, eng, w, []string{"rce", "hoist"})
		if err != nil {
			t.Fatalf("%s on: %v", w.Name, err)
		}
		if on.dynSW < off.dynSW && on.cycles < off.cycles {
			improved++
		}
		if on.cycles > off.cycles {
			t.Errorf("%s: passes made it slower: %d -> %d cycles", w.Name, off.cycles, on.cycles)
		}
	}
	if improved < 3 {
		t.Fatalf("passes improved only %d of 6 kernels (want >= 3)", improved)
	}
}

// TestGoldenAllTablesPasses pins the full suite compiled through the
// optimizing back end. Regenerate with:
//
//	go run ./cmd/cashbench -all -requests 200 -passes rce,hoist > internal/bench/testdata/golden_all_passes_200.txt
func TestGoldenAllTablesPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("full table regeneration is slow; run without -short")
	}
	want, err := os.ReadFile("testdata/golden_all_passes_200.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := renderAll(t, serve.NewEngine(serve.EngineConfig{}), Config{Passes: []string{"rce", "hoist"}}, 200)
	if got != string(want) {
		t.Fatalf("passes-enabled benchmark output drifted from golden\ngot %d bytes, want %d bytes\n%s",
			len(got), len(want), firstDiff(got, string(want)))
	}
}

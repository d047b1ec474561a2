package workload

import (
	"testing"

	"cash/internal/core"
)

// TestRangeKernelsRunIdenticallyAcrossModes is the correctness gate for
// the range kernels, with and without the full pass pipeline.
func TestRangeKernelsRunIdenticallyAcrossModes(t *testing.T) {
	for _, passes := range [][]string{nil, {"rce", "hoist", "affine"}} {
		for _, w := range RangeKernels() {
			w, passes := w, passes
			name := w.Name
			if passes != nil {
				name += "/full-pipeline"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cmp, err := core.CompareStrategies(w.Name, w.Source, core.CompareConfig{Options: core.Options{Passes: passes}})
				if err != nil {
					t.Fatal(err)
				}
				if len(cmp.GCC.Output) == 0 {
					t.Fatal("workload must print a checksum")
				}
				if cmp.GCC.Cycles == 0 {
					t.Fatal("workload must consume cycles")
				}
			})
		}
	}
}

func TestRangeKernelsResolveByName(t *testing.T) {
	for _, w := range RangeKernels() {
		if _, ok := ByName(w.Name); !ok {
			t.Errorf("%s must resolve through ByName", w.Name)
		}
		if w.Category != CategoryKernel {
			t.Errorf("%s: category %v", w.Name, w.Category)
		}
	}
	// The paper suite itself is unchanged.
	if got := len(All()); got != 19 {
		t.Errorf("All() has %d workloads, want 19 (range kernels ride separately)", got)
	}
}

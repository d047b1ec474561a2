package workload

import (
	"testing"

	"cash/internal/core"
)

// TestAllWorkloadsRunIdenticallyAcrossModes is the master correctness
// gate: every workload must compile under GCC, BCC and Cash, run to
// completion without bound violations, and print identical checksums.
func TestAllWorkloadsRunIdenticallyAcrossModes(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			cmp, err := core.CompareStrategies(w.Name, w.Source, core.CompareConfig{Options: core.Options{}})
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

// TestKernelsAreArrayIntensive: every Table 1 kernel must exercise the
// hardware-check path heavily under Cash and the software path under BCC.
func TestKernelsAreArrayIntensive(t *testing.T) {
	for _, w := range Kernels() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			cmp, err := core.CompareStrategies(w.Name, w.Source, core.CompareConfig{Options: core.Options{}})
			if err != nil {
				t.Fatal(err)
			}
			if cmp.Cash.Stats.HWChecks == 0 {
				t.Error("cash must perform hardware checks")
			}
			if cmp.BCC.Stats.SWChecks == 0 {
				t.Error("bcc must perform software checks")
			}
			// The headline result: Cash's overhead is a small fraction of
			// BCC's on array-intensive kernels.
			if cmp.CashOverheadPct() >= cmp.BCCOverheadPct()/2 {
				t.Errorf("cash overhead %.1f%% vs bcc %.1f%%: cash must win clearly",
					cmp.CashOverheadPct(), cmp.BCCOverheadPct())
			}
		})
	}
}

// TestKernelCashOverheadSmall mirrors Table 1's headline: with enough
// segment registers the kernels' Cash overhead stays in the low single
// digits while BCC pays tens of percent.
func TestKernelCashOverheadSmall(t *testing.T) {
	for _, w := range Kernels() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			cmp, err := core.CompareStrategies(w.Name, w.Source, core.CompareConfig{Options: core.Options{SegRegs: 4}})
			if err != nil {
				t.Fatal(err)
			}
			if ov := cmp.CashOverheadPct(); ov > 12 {
				t.Errorf("cash overhead %.1f%% too high for a kernel", ov)
			}
			if ov := cmp.BCCOverheadPct(); ov < 20 {
				t.Errorf("bcc overhead %.1f%% implausibly low", ov)
			}
		})
	}
}

// TestNetworkAppCharacteristics reproduces the Table 7 shape: all apps
// have many array-using loops, few spilled loops, and sendmail has the
// largest spilled fraction.
func TestNetworkAppCharacteristics(t *testing.T) {
	frac := make(map[string]float64)
	for _, w := range NetworkApps() {
		ch, err := core.Characterize(w.Source, 3)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if ch.ArrayUsingLoops == 0 {
			t.Errorf("%s: no array-using loops", w.Name)
		}
		if ch.Lines == 0 {
			t.Errorf("%s: no lines counted", w.Name)
		}
		frac[w.Name] = float64(ch.SpilledLoops) / float64(ch.ArrayUsingLoops)
	}
	for name, f := range frac {
		if name == "sendmail" {
			continue
		}
		if f > frac["sendmail"] {
			t.Errorf("%s spilled fraction %.2f exceeds sendmail's %.2f", name, f, frac["sendmail"])
		}
	}
}

// TestMatMulScaling reproduces the Table 3 property: Cash's relative
// overhead decreases as the input grows, because its absolute overhead is
// size-independent once checks are in hardware.
func TestMatMulScaling(t *testing.T) {
	var last float64 = 1e9
	for _, n := range []int{8, 16, 32} {
		w := MatMul(n)
		cmp, err := core.CompareStrategies(w.Name, w.Source, core.CompareConfig{Options: core.Options{}})
		if err != nil {
			t.Fatal(err)
		}
		ov := cmp.CashOverheadPct()
		if ov >= last && ov > 1.0 {
			t.Errorf("matmul%d: overhead %.2f%% did not shrink (prev %.2f%%)", n, ov, last)
		}
		last = ov
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("toast"); !ok {
		t.Error("toast must be registered")
	}
	if _, ok := ByName("no-such-workload"); ok {
		t.Error("unknown workload must not resolve")
	}
	if got := len(All()); got != 19 {
		t.Errorf("suite has %d workloads, want 19 (18 apps + libc corpus)", got)
	}
}

func TestCategories(t *testing.T) {
	for _, w := range Kernels() {
		if w.Category != CategoryKernel {
			t.Errorf("%s: category %v", w.Name, w.Category)
		}
	}
	for _, w := range Macros() {
		if w.Category != CategoryMacro {
			t.Errorf("%s: category %v", w.Name, w.Category)
		}
	}
	for _, w := range NetworkApps() {
		if w.Category != CategoryNetwork {
			t.Errorf("%s: category %v", w.Name, w.Category)
		}
	}
}

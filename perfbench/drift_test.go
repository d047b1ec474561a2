package main

import (
	"context"
	"os"
	"reflect"
	"testing"

	"cash/internal/obs"
)

// coldSuiteCounters runs one cold paper-suite pass on a fresh engine
// and store and returns its output and exact counter delta.
func coldSuiteCounters(t *testing.T) (string, map[string]uint64) {
	t.Helper()
	eng, err := suiteEngine(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := obs.Default().Snapshot()
	run, err := generateSuite(context.Background(), eng, newTracer(false), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	return run.out, exactCounters(obs.Default().Snapshot().Delta(base))
}

// Simulated results must never move: two cold paper-suite passes
// repeat vm.sim.instructions, vm.sim.cycles, serve.build.compiles and
// every vm.faults.* counter bit for bit, and both match the golden.
// Scheduling-dependent counters (serve.build.coalesced, ...) are not
// compared.
func TestPaperSuiteCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite twice")
	}
	golden, err := os.ReadFile("../" + goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	out1, c1 := coldSuiteCounters(t)
	out2, c2 := coldSuiteCounters(t)
	for _, name := range []string{"vm.sim.instructions", "vm.sim.cycles", "serve.build.compiles", "vm.faults.step_limit"} {
		if c1[name] == 0 {
			t.Errorf("%s did not count", name)
		}
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Errorf("exact counters drifted between two cold passes:\n%v\n%v", c1, c2)
	}
	if out1 != string(golden) || out2 != string(golden) {
		t.Errorf("cold passes differ from %s", goldenPath)
	}
}

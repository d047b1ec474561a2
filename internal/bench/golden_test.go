package bench

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"cash/internal/serve"
)

// renderAll reproduces exactly what `cashbench -all` writes to stdout
// for eng and cfg: every table in paper order, a blank line after each,
// then the Figure 1 trace.
func renderAll(t *testing.T, eng *serve.Engine, cfg Config, requests int) string {
	t.Helper()
	ctx := context.Background()
	tabs, _, err := AllTablesTimedContext(ctx, eng, cfg, requests)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tab := range tabs {
		b.WriteString(tab.Format())
		b.WriteByte('\n')
	}
	trace, err := Figure1TraceContext(ctx, eng)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(trace)
	return b.String()
}

// TestGoldenAllTables pins the full benchmark output byte-for-byte: the
// TLB, the dense memory arenas, the predecoded dispatch and the parallel
// harness are host-side optimisations that must not move a single
// simulated number. Regenerate the golden file only for a change that is
// *supposed* to alter results:
//
//	go run ./cmd/cashbench -all -requests 200 > internal/bench/testdata/golden_all_200.txt
func TestGoldenAllTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full table regeneration is slow; run without -short")
	}
	want, err := os.ReadFile("testdata/golden_all_200.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := renderAll(t, testEng, Config{}, 200)
	if got != string(want) {
		t.Fatalf("benchmark output drifted from golden file\ngot %d bytes, want %d bytes\n%s",
			len(got), len(want), firstDiff(got, string(want)))
	}
}

// TestParallelDeterminism checks that the worker budget cannot change any
// result: the same tables rendered fully sequentially and with a large
// budget must be byte-identical. Under -race this also exercises the
// row fan-out for data races.
func TestParallelDeterminism(t *testing.T) {
	render := func(budget int) string {
		eng := serve.NewEngine(serve.EngineConfig{Parallelism: budget})
		var b strings.Builder
		for _, id := range []string{"table1", "table3", "ablation-segregs"} {
			tab, err := TableByID(context.Background(), eng, Config{}, id, 0)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(tab.Format())
		}
		return b.String()
	}
	seq := render(1)
	parl := render(8)
	if seq != parl {
		t.Fatalf("output differs between -parallel 1 and -parallel 8\n%s", firstDiff(parl, seq))
	}
}

// firstDiff renders the first differing line of two texts.
func firstDiff(got, want string) string {
	g := strings.Split(got, "\n")
	w := strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("first difference at line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return "texts differ in length only"
}

// goldenSection returns the block of a committed `cashbench -all` golden
// that holds the table with the given id, as its Format renders it.
func goldenSection(t *testing.T, file, id string) string {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	for _, block := range strings.Split(string(data), "\n\n") {
		if strings.HasPrefix(block, strings.ToUpper(id)+" — ") {
			return block + "\n"
		}
	}
	t.Fatalf("%s has no %s section", file, id)
	return ""
}

// TestConcurrentEnginesIsolated pins that nothing about a table run is
// process-wide: two Engines with different worker budgets and different
// harness configurations generate table1 at the same time, and each
// result equals its own golden section. Under -race this also checks
// that the two runs share no unsynchronised state.
func TestConcurrentEnginesIsolated(t *testing.T) {
	runs := []struct {
		budget int
		cfg    Config
		golden string
	}{
		{1, Config{}, "testdata/golden_all_200.txt"},
		{8, Config{Passes: []string{"rce", "hoist"}}, "testdata/golden_all_passes_200.txt"},
	}
	got := make([]string, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := serve.NewEngine(serve.EngineConfig{Parallelism: r.budget})
			tab, err := TableByID(context.Background(), eng, r.cfg, "table1", 0)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = tab.Format()
		}()
	}
	wg.Wait()
	for i, r := range runs {
		if errs[i] != nil {
			t.Fatalf("parallelism %d: %v", r.budget, errs[i])
		}
		if want := goldenSection(t, r.golden, "table1"); got[i] != want {
			t.Fatalf("parallelism %d, passes %v: table1 differs from %s\n%s",
				r.budget, r.cfg.Passes, r.golden, firstDiff(got[i], want))
		}
	}
}

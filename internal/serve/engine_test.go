package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"cash/internal/core"
	"cash/internal/obs"
)

// Small deterministic kernels for cache/pool tests. Each test that
// counts global metrics snapshots them before and after, so the tests
// compose with anything else the package (or a cached engine) did.
const sumKernel = `
void main() {
	int s = 0;
	for (int i = 0; i < 100; i++) s += i;
	printi(s);
}`

const heapKernel = `
int churn(int n) {
	int *buf = malloc(n * 4);
	for (int i = 0; i < n; i++) buf[i] = i * 3;
	int s = 0;
	for (int i = 0; i < n; i++) s += buf[i];
	free(buf);
	return s;
}
void main() {
	int t = 0;
	for (int r = 0; r < 20; r++) t += churn(8 + r);
	printi(t);
}`

// runawayKernel burns its entire step budget.
const runawayKernel = `
void main() {
	int s = 0;
	for (int i = 0; i < 2000000000; i++) s += i;
	printi(s);
}`

func counter(name string) uint64 { return obs.Default().Counter(name).Value() }

func mustBuild(t *testing.T, e *Engine, src string, mode core.Mode, opts core.Options) *core.Artifact {
	t.Helper()
	art, err := e.BuildContext(context.Background(), src, mode, opts)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

func mustRun(t *testing.T, e *Engine, art *core.Artifact) *core.RunResult {
	t.Helper()
	res, err := e.RunContext(context.Background(), art)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCacheHitIsByteIdentical pins the core cache contract: a cached
// build is the same artifact, a cached run is indistinguishable from a
// real one, and both match an engine with caching and pooling disabled.
func TestCacheHitIsByteIdentical(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	cold := NewEngine(EngineConfig{CacheBytes: -1, PoolSize: -1})
	for _, mode := range []core.Mode{core.ModeGCC, core.ModeBCC, core.ModeCash} {
		art1 := mustBuild(t, eng, heapKernel, mode, core.Options{})
		art2 := mustBuild(t, eng, heapKernel, mode, core.Options{})
		if art1 != art2 {
			t.Fatalf("[%v] cache hit returned a different artifact", mode)
		}
		runHits := counter("serve.cache.run_hits")
		res1 := mustRun(t, eng, art1) // real simulation, result recorded
		res2 := mustRun(t, eng, art1) // served from the run cache
		if got := counter("serve.cache.run_hits") - runHits; got != 1 {
			t.Fatalf("[%v] run_hits delta = %d, want 1", mode, got)
		}
		if res1 == res2 {
			t.Fatalf("[%v] run cache returned the recorded result itself, not a copy", mode)
		}
		if !reflect.DeepEqual(res1, res2) {
			t.Fatalf("[%v] cached run result differs from the real one:\n%+v\nvs\n%+v", mode, res1, res2)
		}
		resCold := mustRun(t, cold, mustBuild(t, cold, heapKernel, mode, core.Options{}))
		if !reflect.DeepEqual(res1, resCold) {
			t.Fatalf("[%v] cached engine result differs from cache-disabled engine:\n%+v\nvs\n%+v", mode, res1, resCold)
		}
		// A caller mutating its copy must not poison later hits.
		res2.Output = append(res2.Output, 999999)
		res3 := mustRun(t, eng, art1)
		if !reflect.DeepEqual(res1, res3) {
			t.Fatalf("[%v] mutating a served copy leaked into the cache", mode)
		}
	}
}

// TestCacheErrorOutcomesAreCached pins that deterministic failures
// (here: a runaway program's step-limit fault) are served from the run
// cache too — the expensive part of the detectors table depends on it.
func TestCacheErrorOutcomesAreCached(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	art := mustBuild(t, eng, runawayKernel, core.ModeGCC, core.Options{StepLimit: 100_000})
	_, err1 := eng.RunContext(context.Background(), art)
	if err1 == nil {
		t.Fatal("runaway kernel ran to completion; want step-limit fault")
	}
	runHits := counter("serve.cache.run_hits")
	_, err2 := eng.RunContext(context.Background(), art)
	if got := counter("serve.cache.run_hits") - runHits; got != 1 {
		t.Fatalf("run_hits delta = %d, want 1 (error outcome not cached)", got)
	}
	if err2 == nil || err1.Error() != err2.Error() {
		t.Fatalf("cached error differs: %v vs %v", err1, err2)
	}
}

// TestCacheEvictionUnderTinyBudget forces every insert over budget and
// checks the LRU actually evicts (while always retaining the newest
// entry, so a hot artifact larger than the whole budget still serves).
func TestCacheEvictionUnderTinyBudget(t *testing.T) {
	eng := NewEngine(EngineConfig{CacheBytes: 1, PoolSize: -1})
	evictions := counter("serve.cache.evictions")
	compiles := counter("serve.build.compiles")
	sources := make([]string, 4)
	for i := range sources {
		sources[i] = fmt.Sprintf("void main() { printi(%d); }", 1000+i)
		mustBuild(t, eng, sources[i], core.ModeCash, core.Options{})
	}
	if got := counter("serve.cache.evictions") - evictions; got < 3 {
		t.Fatalf("evictions delta = %d, want >= 3", got)
	}
	// The newest artifact survives (hit); the oldest was evicted (miss).
	mustBuild(t, eng, sources[3], core.ModeCash, core.Options{})
	mustBuild(t, eng, sources[0], core.ModeCash, core.Options{})
	if got := counter("serve.build.compiles") - compiles; got != 5 {
		t.Fatalf("compiles delta = %d, want 5 (4 cold + 1 evicted rebuild)", got)
	}
}

// TestSingleflightCollapsesConcurrentBuilds starts 32 identical builds
// at once and checks exactly one compile happened, the other 31 were
// served as a hit or coalesced onto the flight, and the logical
// core.builds.* counter still saw all 32 requests.
func TestSingleflightCollapsesConcurrentBuilds(t *testing.T) {
	eng := NewEngine(EngineConfig{MaxInFlight: 64})
	const n = 32
	src := `void main() { printi(424242); }`
	compiles := counter("serve.build.compiles")
	hits := counter("serve.cache.hits")
	coalesced := counter("serve.build.coalesced")
	logical := counter("core.builds.cash")

	arts := make([]*core.Artifact, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arts[i], errs[i] = eng.BuildContext(context.Background(), src, core.ModeCash, core.Options{})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("build %d: %v", i, err)
		}
		if arts[i] != arts[0] {
			t.Fatalf("build %d returned a different artifact", i)
		}
	}
	if got := counter("serve.build.compiles") - compiles; got != 1 {
		t.Fatalf("compiles delta = %d, want 1", got)
	}
	servedCheap := (counter("serve.cache.hits") - hits) + (counter("serve.build.coalesced") - coalesced)
	if servedCheap != n-1 {
		t.Fatalf("hits+coalesced delta = %d, want %d", servedCheap, n-1)
	}
	if got := counter("core.builds.cash") - logical; got != n {
		t.Fatalf("logical build count delta = %d, want %d", got, n)
	}
}

// TestBuildErrorsPropagateToWaiters pins the failure side of the
// singleflight: every coalesced waiter gets the leader's compile error,
// and nothing is cached for the key.
func TestBuildErrorsPropagateToWaiters(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	src := `void main() { this is not mini-C `
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = eng.BuildContext(context.Background(), src, core.ModeCash, core.Options{})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("build %d: want compile error, got nil", i)
		}
	}
	// The failure was not cached: a retry compiles (and fails) again.
	compiles := counter("serve.build.compiles")
	if _, err := eng.BuildContext(context.Background(), src, core.ModeCash, core.Options{}); err == nil {
		t.Fatal("retry: want compile error, got nil")
	}
	if got := counter("serve.build.compiles") - compiles; got != 1 {
		t.Fatalf("retry compiles delta = %d, want 1 (error was cached?)", got)
	}
}

// TestPooledMachineEquivalence pins the pool's core guarantee: a run on
// recycled machine parts is indistinguishable from a run on fresh ones,
// for all three modes and across programs of different geometry sharing
// one pool. The run cache is disabled so every run really simulates.
func TestPooledMachineEquivalence(t *testing.T) {
	eng := NewEngine(EngineConfig{CacheBytes: -1, PoolSize: 2})
	for _, mode := range []core.Mode{core.ModeGCC, core.ModeBCC, core.ModeCash} {
		artA := mustBuild(t, eng, heapKernel, mode, core.Options{})
		artB := mustBuild(t, eng, sumKernel, mode, core.Options{})
		recycled := counter("serve.pool.recycled")
		freshA := mustRun(t, eng, artA) // fresh parts, returned to pool
		freshB := mustRun(t, eng, artB)
		for i := 0; i < 3; i++ {
			if got := mustRun(t, eng, artA); !reflect.DeepEqual(freshA, got) {
				t.Fatalf("[%v] recycled run %d differs from fresh run:\n%+v\nvs\n%+v", mode, i, freshA, got)
			}
			if got := mustRun(t, eng, artB); !reflect.DeepEqual(freshB, got) {
				t.Fatalf("[%v] recycled run %d differs from fresh run (B):\n%+v", mode, i, got)
			}
		}
		if counter("serve.pool.recycled") == recycled {
			t.Fatalf("[%v] no machine was recycled; the equivalence was tested against nothing", mode)
		}
	}
}

// TestPoolConcurrentHammer exercises the pool from many goroutines
// under -race: interleaved runs of two different programs must all
// produce their own program's exact result.
func TestPoolConcurrentHammer(t *testing.T) {
	eng := NewEngine(EngineConfig{CacheBytes: -1, PoolSize: 2, MaxInFlight: 8})
	artA := mustBuild(t, eng, heapKernel, core.ModeCash, core.Options{})
	artB := mustBuild(t, eng, sumKernel, core.ModeCash, core.Options{})
	wantA := mustRun(t, eng, artA)
	wantB := mustRun(t, eng, artB)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				art, want := artA, wantA
				if (g+i)%2 == 0 {
					art, want = artB, wantB
				}
				got, err := eng.RunContext(context.Background(), art)
				if err != nil {
					t.Errorf("goroutine %d run %d: %v", g, i, err)
					return
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("goroutine %d run %d: result differs", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRunContextCancellation checks that canceling mid-simulation
// surfaces ctx.Err() promptly and leaks neither the admission slot nor
// pool capacity: the engine serves the next request normally.
func TestRunContextCancellation(t *testing.T) {
	eng := NewEngine(EngineConfig{MaxInFlight: 1})
	// ~100M-instruction budget: several seconds if cancellation fails,
	// interrupted within a cancel stride if it works.
	art := mustBuild(t, eng, runawayKernel, core.ModeGCC, core.Options{StepLimit: 100_000_000})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := eng.RunContext(ctx, art)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("res = %+v, want nil on cancellation", res)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("cancellation took %v; not prompt", elapsed)
	}
	eng.adm.mu.Lock()
	inflight, queued := eng.adm.inflight, eng.adm.waiters.Len()
	eng.adm.mu.Unlock()
	if inflight != 0 || queued != 0 {
		t.Fatalf("admission state leaked: inflight=%d queued=%d", inflight, queued)
	}
	// The canceled run's result must not have been cached, and the
	// single slot must be free: a fresh run completes.
	quick := mustBuild(t, eng, sumKernel, core.ModeCash, core.Options{})
	mustRun(t, eng, quick)
}

// TestBuildContextPreCanceled: a dead context never compiles.
func TestBuildContextPreCanceled(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.BuildContext(ctx, sumKernel, core.ModeCash, core.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestAdmissionQueuesAndCancels pins the FIFO admission contract on a
// one-slot engine: a second request waits, a canceled waiter leaves the
// queue (counted), and the slot is handed on intact.
func TestAdmissionQueuesAndCancels(t *testing.T) {
	eng := NewEngine(EngineConfig{MaxInFlight: 1, CacheBytes: -1, PoolSize: -1})
	waits := counter("serve.admission.waits")
	canceled := counter("serve.admission.canceled")

	if err := eng.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A waiter behind the held slot cancels out of the queue.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- eng.acquire(ctx) }()
	for {
		eng.adm.mu.Lock()
		queued := eng.adm.waiters.Len()
		eng.adm.mu.Unlock()
		if queued == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter got %v, want context.Canceled", err)
	}
	if got := counter("serve.admission.waits") - waits; got != 1 {
		t.Fatalf("waits delta = %d, want 1", got)
	}
	if got := counter("serve.admission.canceled") - canceled; got != 1 {
		t.Fatalf("canceled delta = %d, want 1", got)
	}
	// A second waiter is granted the slot when the holder releases.
	go func() { done <- eng.acquire(context.Background()) }()
	for {
		eng.adm.mu.Lock()
		queued := eng.adm.waiters.Len()
		eng.adm.mu.Unlock()
		if queued == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	eng.release()
	if err := <-done; err != nil {
		t.Fatalf("queued waiter got %v, want grant", err)
	}
	eng.release()
	eng.adm.mu.Lock()
	defer eng.adm.mu.Unlock()
	if eng.adm.inflight != 0 || eng.adm.waiters.Len() != 0 {
		t.Fatalf("admission state leaked: inflight=%d queued=%d", eng.adm.inflight, eng.adm.waiters.Len())
	}
}

// TestCompareContextMatchesPlainCompare: the engine-served comparison
// is the plain one, byte for byte.
func TestCompareContextMatchesPlainCompare(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	want, err := core.CompareStrategies("heap", heapKernel, core.CompareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.CompareStrategiesContext(context.Background(), "heap", heapKernel, core.CompareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("engine comparison differs:\n%+v\nvs\n%+v", want, got)
	}
}

// TestEngineConfigZeroValues pins what an unset budget and trace mean
// now that nothing is inherited from process-wide state: Parallelism 0
// is GOMAXPROCS, read once at Open, and a nil EventTrace is no trace.
func TestEngineConfigZeroValues(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	if got, want := eng.Parallelism(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Parallelism() = %d, want GOMAXPROCS %d", got, want)
	}
	if tr := eng.EventTrace(); tr != nil {
		t.Fatalf("EventTrace() = %v, want nil", tr)
	}
	tr := obs.NewTrace(4)
	eng = NewEngine(EngineConfig{Parallelism: 3, EventTrace: tr})
	if eng.Parallelism() != 3 || eng.EventTrace() != tr {
		t.Fatal("explicit Parallelism and EventTrace must be kept as given")
	}
}

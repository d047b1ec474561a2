package par

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoRunsEveryIndexOnce(t *testing.T) {
	for _, budget := range []int{1, 2, 16} {
		const n = 100
		var counts [n]atomic.Int32
		if err := Do(budget, n, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("budget %d: f(%d) ran %d times", budget, i, got)
			}
		}
	}
}

func TestDoReturnsLowestIndexError(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		err := Do(8, 20, func(i int) error {
			if i == 3 || i == 17 {
				return fmt.Errorf("fail-%d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail-3" {
			t.Fatalf("want fail-3 (lowest failing index), got %v", err)
		}
	}
}

// TestDoConcurrentSimultaneousFailures pins the scheduling-independence
// half of Do's contract: when several indices fail at the same moment —
// a rendezvous barrier holds every worker in flight until all have
// started, so no failure is ordered before another by the work loop —
// the returned error is still the lowest failed index's.
func TestDoConcurrentSimultaneousFailures(t *testing.T) {
	const n = 8
	for trial := 0; trial < 25; trial++ {
		var barrier sync.WaitGroup
		barrier.Add(n)
		err := Do(n, n, func(i int) error {
			barrier.Done()
			barrier.Wait()
			if i%2 == 1 {
				return fmt.Errorf("fail-%d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail-1" {
			t.Fatalf("trial %d: want fail-1 (lowest failing index), got %v", trial, err)
		}
	}
}

func TestDoSequentialStopsAtFirstError(t *testing.T) {
	ran := 0
	sentinel := errors.New("stop")
	err := Do(1, 10, func(i int) error {
		ran++
		if i == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("want sentinel error, got %v", err)
	}
	if ran != 3 {
		t.Fatalf("sequential mode must stop at first error; ran %d calls", ran)
	}
}

// TestDoClampsBudgetToOne pins that a budget below 1 means fully
// sequential: every call runs inline, in index order, on the caller's
// goroutine.
func TestDoClampsBudgetToOne(t *testing.T) {
	for _, budget := range []int{0, -5} {
		var order []int
		if err := Do(budget, 5, func(i int) error {
			order = append(order, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(order) != "[0 1 2 3 4]" {
			t.Fatalf("budget %d: ran %v, want inline index order", budget, order)
		}
		if errs := DoCollect(budget, 3, func(int) error { return nil }); len(errs) != 3 {
			t.Fatalf("budget %d: DoCollect returned %d errors, want 3", budget, len(errs))
		}
	}
}

func TestDoZeroItems(t *testing.T) {
	if err := Do(4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

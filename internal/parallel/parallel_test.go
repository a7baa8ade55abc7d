package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8, 33} {
		got, err := Map(Pool{Workers: workers}, 100, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: len = %d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapMatchesSequential(t *testing.T) {
	fn := func(i int) (string, error) {
		return fmt.Sprintf("cell-%03d", i), nil
	}
	seq, err := Map(Pool{Workers: 1}, 57, fn)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Map(Pool{Workers: 16}, 57, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("out[%d]: sequential %q != parallel %q", i, seq[i], par[i])
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(Pool{}, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty map: %v, %v", got, err)
	}
}

func TestMapDefaultWorkers(t *testing.T) {
	if (Pool{}).Size() != runtime.GOMAXPROCS(0) {
		t.Fatal("default workers != GOMAXPROCS")
	}
	if (Pool{Workers: -3}).Size() != runtime.GOMAXPROCS(0) {
		t.Fatal("negative workers != GOMAXPROCS")
	}
	if (Pool{Workers: 7}).Size() != 7 {
		t.Fatal("explicit workers not honoured")
	}
}

func TestMapPoisonedCell(t *testing.T) {
	// One poisoned cell: the pool must return promptly with exactly that
	// error, and queued cells after the failure must be skipped.
	poison := errors.New("cell 7 is poisoned")
	var ran atomic.Int64
	start := time.Now()
	got, err := Map(Pool{Workers: 4}, 10_000, func(i int) (int, error) {
		ran.Add(1)
		if i == 7 {
			return 0, poison
		}
		time.Sleep(100 * time.Microsecond)
		return i, nil
	})
	if !errors.Is(err, poison) {
		t.Fatalf("err = %v, want poison", err)
	}
	if got != nil {
		t.Fatal("partial results returned alongside error")
	}
	if n := ran.Load(); n >= 10_000 {
		t.Fatalf("all %d cells ran despite early poison", n)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("pool took %v to abort", elapsed)
	}
}

func TestMapSequentialPoison(t *testing.T) {
	poison := errors.New("boom")
	var ran int
	_, err := Map(Pool{Workers: 1}, 100, func(i int) (int, error) {
		ran++
		if i == 3 {
			return 0, poison
		}
		return i, nil
	})
	if !errors.Is(err, poison) {
		t.Fatalf("err = %v", err)
	}
	if ran != 4 {
		t.Fatalf("sequential path ran %d cells after error, want stop at 4", ran)
	}
}

func TestMapLowestIndexErrorWins(t *testing.T) {
	// When several cells fail, the reported error is the lowest-indexed
	// one among those that actually ran — deterministic for the common
	// case of one true failure plus cascading ones.
	errA, errB := errors.New("a"), errors.New("b")
	var release sync.WaitGroup
	release.Add(1)
	done := make(chan error, 1)
	go func() {
		_, err := Map(Pool{Workers: 2}, 2, func(i int) (int, error) {
			release.Wait() // both cells fail together
			if i == 0 {
				return 0, errA
			}
			return 0, errB
		})
		done <- err
	}()
	release.Done()
	if err := <-done; !errors.Is(err, errA) {
		t.Fatalf("err = %v, want lowest-index error %v", err, errA)
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	err := Do(Pool{Workers: workers}, 200, func(i int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent cells, pool bound is %d", p, workers)
	}
}

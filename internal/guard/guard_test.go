package guard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestProtectConvertsPanic(t *testing.T) {
	err := Protect(StageParse, "bad.c", func() error {
		panic("index out of range")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if pe.Stage != StageParse || pe.Unit != "bad.c" {
		t.Errorf("stage/unit = %s/%s", pe.Stage, pe.Unit)
	}
	if !strings.Contains(pe.Error(), "index out of range") {
		t.Errorf("message: %s", pe.Error())
	}
	if len(pe.Stack) == 0 {
		t.Error("panic stack not captured")
	}
}

func TestProtectPassesThroughErrors(t *testing.T) {
	want := errors.New("plain failure")
	if err := Protect(StageCheck, "u", func() error { return want }); err != want {
		t.Errorf("got %v", err)
	}
	if err := Protect(StageCheck, "u", func() error { return nil }); err != nil {
		t.Errorf("got %v", err)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diag(StageExtract, "mm/page_alloc.c", errors.New("boom"), true)
	s := d.String()
	for _, want := range []string{"mm/page_alloc.c", "degraded", "extract", "boom"} {
		if !strings.Contains(s, want) {
			t.Errorf("diagnostic %q missing %q", s, want)
		}
	}
	if fatal := Diag(StageParse, "u", errors.New("x"), false).String(); !strings.Contains(fatal, "error[") {
		t.Errorf("non-partial diagnostic should render as error: %q", fatal)
	}
}

func TestBudgetNilIsUnlimited(t *testing.T) {
	var b *Budget
	for i := 0; i < 1000; i++ {
		if err := b.Step(); err != nil {
			t.Fatal(err)
		}
		if err := b.MacroExpand(); err != nil {
			t.Fatal(err)
		}
	}
	if b.Err() != nil || b.Steps() != 0 || b.MacroExpansions() != 0 {
		t.Error("nil budget must be inert")
	}
}

func TestBudgetStepLimit(t *testing.T) {
	b := NewBudget(nil, Limits{MaxSteps: 10})
	var last error
	for i := 0; i < 20; i++ {
		last = b.Step()
	}
	if !errors.Is(last, ErrSteps) {
		t.Fatalf("want ErrSteps, got %v", last)
	}
	if !IsBudget(last) {
		t.Error("ErrSteps must classify as a budget violation")
	}
}

func TestBudgetMacroLimit(t *testing.T) {
	b := NewBudget(nil, Limits{MaxMacroExpansions: 5})
	var last error
	for i := 0; i < 10; i++ {
		last = b.MacroExpand()
	}
	if !errors.Is(last, ErrMacroBudget) {
		t.Fatalf("want ErrMacroBudget, got %v", last)
	}
}

func TestBudgetDeadline(t *testing.T) {
	b := NewBudget(nil, Limits{Deadline: 10 * time.Millisecond})
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if err := b.Step(); err != nil {
			if !errors.Is(err, ErrDeadline) {
				t.Fatalf("want ErrDeadline, got %v", err)
			}
			return
		}
	}
	t.Fatal("deadline never enforced")
}

func TestBudgetContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := NewBudget(ctx, Limits{})
	cancel()
	var last error
	for i := 0; i < 2*(timeCheckMask+1); i++ {
		last = b.Step()
	}
	if !errors.Is(last, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", last)
	}
}

func TestBudgetContextDeadlineMerged(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	b := NewBudget(ctx, Limits{Deadline: time.Hour})
	if !b.hasDeadline || time.Until(b.deadline) > time.Minute {
		t.Error("tighter context deadline must win over the limit")
	}
}

func TestBudgetFirstViolationWins(t *testing.T) {
	b := NewBudget(nil, Limits{MaxSteps: 1, MaxMacroExpansions: 1})
	b.Step()
	b.Step() // trips steps
	b.MacroExpand()
	b.MacroExpand() // would trip macros, but steps came first
	if !errors.Is(b.Err(), ErrSteps) {
		t.Errorf("first violation must stick, got %v", b.Err())
	}
}

// TestBudgetConcurrentUse hammers one budget from many goroutines; run under
// -race this asserts the counters and violation latch are race-free.
func TestBudgetConcurrentUse(t *testing.T) {
	b := NewBudget(nil, Limits{MaxSteps: 5000, MaxMacroExpansions: 5000})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b.Step()
				b.MacroExpand()
				b.Err()
			}
		}()
	}
	wg.Wait()
	if b.Steps() != 16000 || b.MacroExpansions() != 16000 {
		t.Errorf("lost updates: steps=%d macros=%d", b.Steps(), b.MacroExpansions())
	}
	if !errors.Is(b.Err(), ErrSteps) && !errors.Is(b.Err(), ErrMacroBudget) {
		t.Errorf("violation not latched: %v", b.Err())
	}
}

func TestPoolRunsEveryItem(t *testing.T) {
	n := 100
	out := make([]int, n)
	errs := Pool(n, 4, func(i int) error {
		out[i] = i * i
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if out[i] != i*i {
			t.Fatalf("item %d not run", i)
		}
	}
}

func TestPoolIsolatesPanicsAndErrors(t *testing.T) {
	errs := Pool(5, 2, func(i int) error {
		switch i {
		case 1:
			panic("boom")
		case 3:
			return fmt.Errorf("soft failure")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(errs[1], &pe) {
		t.Errorf("item 1: want *PanicError, got %v", errs[1])
	}
	if errs[3] == nil || !strings.Contains(errs[3].Error(), "soft failure") {
		t.Errorf("item 3: %v", errs[3])
	}
	for _, i := range []int{0, 2, 4} {
		if errs[i] != nil {
			t.Errorf("item %d must survive neighbours failing: %v", i, errs[i])
		}
	}
}

func TestPoolEdgeCases(t *testing.T) {
	if errs := Pool(0, 4, func(int) error { return nil }); errs != nil {
		t.Error("n=0 must return nil")
	}
	// workers <= 0 and workers > n both normalize.
	ran := 0
	var mu sync.Mutex
	errs := Pool(3, -1, func(i int) error {
		mu.Lock()
		ran++
		mu.Unlock()
		return nil
	})
	if len(errs) != 3 || ran != 3 {
		t.Errorf("ran=%d errs=%d", ran, len(errs))
	}
}

// TestPoolWorkerCountDefaults pins the worker-count convention every
// AnalysisWorkers setting rests on: 0 (and any negative count) means
// GOMAXPROCS goroutines, 1 means serial. Each item waits until the expected
// number of items run at once, so too few workers time out and too many
// show up in the peak.
func TestPoolWorkerCountDefaults(t *testing.T) {
	const procs = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	for _, tc := range []struct{ workers, want int }{{0, procs}, {-1, procs}, {1, 1}, {2, 2}} {
		var running, peak atomic.Int64
		full := make(chan struct{})
		var once sync.Once
		errs := PoolNamed(StageExtract, 4*procs, tc.workers,
			func(i int) string { return fmt.Sprintf("item %d", i) },
			func(int) error {
				n := running.Add(1)
				defer running.Add(-1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				if n == int64(tc.want) {
					once.Do(func() { close(full) })
				}
				select {
				case <-full:
					return nil
				case <-time.After(5 * time.Second):
					err := fmt.Errorf("only %d items ran at once", running.Load())
					once.Do(func() { close(full) })
					return err
				}
			})
		for _, err := range errs {
			if err != nil {
				t.Fatalf("workers=%d: %v", tc.workers, err)
			}
		}
		if got := peak.Load(); got != int64(tc.want) {
			t.Errorf("workers=%d with GOMAXPROCS=%d: peak concurrency %d, want %d",
				tc.workers, procs, got, tc.want)
		}
	}
}

// TestPoolConcurrentWrites asserts under -race that positional result slots
// are a safe communication pattern (each worker writes distinct indices).
func TestPoolConcurrentWrites(t *testing.T) {
	n := 500
	vals := make([]string, n)
	Pool(n, 16, func(i int) error {
		vals[i] = fmt.Sprintf("v%d", i)
		return nil
	})
	for i, v := range vals {
		if v != fmt.Sprintf("v%d", i) {
			t.Fatalf("slot %d = %q", i, v)
		}
	}
}

func TestGateBoundsConcurrency(t *testing.T) {
	g := NewGate(3)
	if g.Cap() != 3 {
		t.Fatalf("cap = %d, want 3", g.Cap())
	}
	var mu sync.Mutex
	cur, peak := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.Do(StageServe, "u", func() error {
				mu.Lock()
				cur++
				if cur > peak {
					peak = cur
				}
				mu.Unlock()
				time.Sleep(2 * time.Millisecond)
				mu.Lock()
				cur--
				mu.Unlock()
				return nil
			})
		}()
	}
	wg.Wait()
	if peak > 3 {
		t.Fatalf("peak concurrency = %d, want <= 3", peak)
	}
	if g.InFlight() != 0 {
		t.Fatalf("in-flight after drain = %d, want 0", g.InFlight())
	}
}

func TestGateIsolatesPanics(t *testing.T) {
	g := NewGate(2)
	err := g.Do(StageServe, "evil.c", func() error { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Unit != "evil.c" {
		t.Fatalf("want *PanicError for evil.c, got %v", err)
	}
	// The slot was released: the gate still admits work afterwards.
	done := make(chan struct{})
	go func() {
		g.Do(StageServe, "ok.c", func() error { return nil })
		g.Do(StageServe, "ok2.c", func() error { return nil })
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("gate wedged after a panic (slot leaked)")
	}
}

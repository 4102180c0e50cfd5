package guard

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGateAcquireRelease covers the explicit slot API the admission layer
// builds on: acquire up to cap, block past it, release to unblock.
func TestGateAcquireRelease(t *testing.T) {
	g := NewGate(2)
	if err := g.Acquire(nil); err != nil {
		t.Fatal(err)
	}
	if err := g.Acquire(nil); err != nil {
		t.Fatal(err)
	}
	if g.InFlight() != 2 {
		t.Fatalf("in-flight = %d, want 2", g.InFlight())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := g.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("full-gate acquire = %v, want deadline exceeded", err)
	}
	g.Release()
	if err := g.Acquire(nil); err != nil {
		t.Fatalf("post-release acquire = %v", err)
	}
	g.Release()
	g.Release()
	if g.InFlight() != 0 {
		t.Fatalf("in-flight = %d after drain, want 0", g.InFlight())
	}
}

// TestGateContentionWithConcurrentDrain is the satellite's race test: many
// goroutines hammer Acquire/Release (plus Do, plus canceled contexts) while
// a drain fires mid-run. Under -race it must hold the two invariants the
// admission layer depends on: InFlight never goes negative (sampled
// continuously by a watcher goroutine), and Drain always completes with no
// work left in flight.
func TestGateContentionWithConcurrentDrain(t *testing.T) {
	// The drain fires once drainAfter admissions have been observed, and
	// every goroutine churns until it sees a refusal, so both outcomes occur
	// whatever the scheduling.
	const workers, goroutines, drainAfter = 3, 32, 256
	g := NewGate(workers)

	var negative atomic.Bool
	var peak atomic.Int64
	stopWatch := make(chan struct{})
	watcher := make(chan struct{})
	go func() {
		defer close(watcher)
		for {
			select {
			case <-stopWatch:
				return
			default:
			}
			n := g.InFlight()
			if n < 0 {
				negative.Store(true)
			}
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
		}
	}()

	var admitted, refused atomic.Int64
	churning := make(chan struct{})
	admit := func() {
		if admitted.Add(1) == drainAfter {
			close(churning)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				switch {
				case w%4 == 0:
					// Exercise the Do path under the same churn.
					err := g.Do(StageServe, "hammer.c", func() error { return nil })
					if err == nil {
						admit()
					} else if errors.Is(err, ErrGateDraining) {
						refused.Add(1)
						return
					}
				case w%7 == 0 && i%3 == 0:
					// Pre-canceled context: must never leak a slot.
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					err := g.Acquire(ctx)
					if err == nil {
						g.Release()
						admit()
					} else if errors.Is(err, ErrGateDraining) {
						refused.Add(1)
						return
					}
				default:
					err := g.Acquire(context.Background())
					if errors.Is(err, ErrGateDraining) {
						refused.Add(1)
						return
					}
					if err != nil {
						continue
					}
					admit()
					g.Release()
				}
			}
		}(w)
	}

	// Fire the drain mid-churn from its own goroutine (plus a second
	// concurrent Drain call: it must be idempotent and also complete).
	<-churning
	drainErr := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			drainErr <- g.Drain(ctx)
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-drainErr; err != nil {
			t.Fatalf("drain did not complete: %v", err)
		}
	}
	if n := g.InFlight(); n != 0 {
		t.Fatalf("in-flight after drain = %d, want 0", n)
	}
	if !g.Draining() {
		t.Fatal("Draining() must report true after Drain")
	}
	if err := g.Acquire(nil); !errors.Is(err, ErrGateDraining) {
		t.Fatalf("post-drain acquire = %v, want ErrGateDraining", err)
	}
	if err := g.Do(StageServe, "late.c", func() error { return nil }); !errors.Is(err, ErrGateDraining) {
		t.Fatalf("post-drain Do = %v, want ErrGateDraining", err)
	}

	wg.Wait()
	close(stopWatch)
	<-watcher
	if negative.Load() {
		t.Fatal("InFlight went negative under contention")
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak in-flight = %d, want <= %d", p, workers)
	}
	if admitted.Load() == 0 || refused.Load() == 0 {
		t.Fatalf("test did not exercise both outcomes: admitted=%d refused=%d",
			admitted.Load(), refused.Load())
	}
}

// TestGateDrainWaitsForInFlight parks a slow unit, drains, and asserts the
// drain returns only after the unit released its slot.
func TestGateDrainWaitsForInFlight(t *testing.T) {
	g := NewGate(1)
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		g.Do(StageServe, "slow.c", func() error {
			<-release
			return nil
		})
		close(done)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for g.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("unit never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() { drained <- g.Drain(nil) }()
	select {
	case <-drained:
		t.Fatal("drain returned while a unit was in flight")
	case <-time.After(30 * time.Millisecond):
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	<-done

	// A bounded-context drain on a wedged gate must give up, not hang.
	g2 := NewGate(1)
	g2.Acquire(nil) // never released
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := g2.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wedged drain = %v, want deadline exceeded", err)
	}
}

// TestGateDoContextCanceledWhileQueued proves an abandoned caller stops
// waiting for a slot: with the gate full, DoContext under a canceled context
// returns the context error promptly, never runs fn, and leaves the gate's
// accounting untouched.
func TestGateDoContextCanceledWhileQueued(t *testing.T) {
	g := NewGate(1)
	if err := g.Acquire(nil); err != nil {
		t.Fatal(err)
	}
	defer g.Release()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	ran := atomic.Bool{}
	go func() {
		done <- g.DoContext(ctx, StageServe, "abandoned.c", func() error {
			ran.Store(true)
			return nil
		})
	}()
	time.Sleep(10 * time.Millisecond) // let the goroutine block on the full gate
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("DoContext = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("DoContext did not unblock on cancellation")
	}
	if ran.Load() {
		t.Fatal("fn ran despite canceled acquisition")
	}
	if g.InFlight() != 1 {
		t.Fatalf("in-flight = %d, want 1 (only the test's own slot)", g.InFlight())
	}
}

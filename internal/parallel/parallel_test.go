package parallel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersNormalization(t *testing.T) {
	if got := Workers(0); got != runtime.NumCPU() {
		t.Fatalf("Workers(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(-3); got != runtime.NumCPU() {
		t.Fatalf("Workers(-3) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d, want 5", got)
	}
}

func TestMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 33} {
		out, err := Map(context.Background(), 100, workers, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 100 {
			t.Fatalf("workers=%d: len=%d", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d]=%d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(context.Background(), 0, 4, func(i int) (int, error) {
		t.Fatal("f called for n=0")
		return 0, nil
	})
	if err != nil || out != nil {
		t.Fatalf("Map(n=0) = %v, %v; want nil, nil", out, err)
	}
}

func TestMapFirstErrorLowestIndex(t *testing.T) {
	errA := errors.New("boom-3")
	errB := errors.New("boom-7")
	for _, workers := range []int{1, 4} {
		_, err := Map(context.Background(), 50, workers, func(i int) (int, error) {
			switch i {
			case 3:
				return 0, errA
			case 7:
				return 0, errB
			}
			return i, nil
		})
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: err=%v, want lowest-index error %v", workers, err, errA)
		}
	}
}

// The lowest-index guarantee must hold even when the low item fails late:
// item 0 sleeps before failing while item 9 fails instantly.
func TestMapFirstErrorRace(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	_, err := Map(context.Background(), 10, 4, func(i int) (int, error) {
		if i == 0 {
			time.Sleep(20 * time.Millisecond)
			return 0, errLow
		}
		if i == 9 {
			return 0, errHigh
		}
		time.Sleep(5 * time.Millisecond)
		return i, nil
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("err=%v, want lowest-index error even when it finishes last", err)
	}
}

// A failure must stop dispatch above it without abandoning an index below
// it that a worker has claimed but not begun: every index under the lowest
// failing one runs, so that one's error is the answer at any interleaving.
func TestMapRunsEveryIndexBelowTheFailure(t *testing.T) {
	const n, firstBad = 64, 40
	for round := 0; round < 500; round++ {
		var ran [n]atomic.Bool
		_, err := Map(context.Background(), n, 8, func(i int) (int, error) {
			ran[i].Store(true)
			if i >= firstBad {
				return 0, fmt.Errorf("bad-%d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != fmt.Sprintf("bad-%d", firstBad) {
			t.Fatalf("round %d: err=%v, want bad-%d", round, err, firstBad)
		}
		for i := 0; i < firstBad; i++ {
			if !ran[i].Load() {
				t.Fatalf("round %d: index %d below the failure never ran", round, i)
			}
		}
	}
}

func TestMapContextCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		_, err := Map(ctx, 1000, workers, func(i int) (int, error) {
			if calls.Add(1) == 5 {
				cancel()
			}
			time.Sleep(time.Millisecond)
			return i, nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err=%v, want context.Canceled", workers, err)
		}
		if n := calls.Load(); n >= 1000 {
			t.Fatalf("workers=%d: all %d items ran despite cancellation", workers, n)
		}
	}
}

func TestMapPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic swallowed", workers)
				}
				if workers > 1 {
					msg, ok := r.(string)
					if !ok || !strings.Contains(msg, "item 2") {
						t.Fatalf("workers=%d: recovered %v, want message naming item 2", workers, r)
					}
				}
			}()
			_, _ = Map(context.Background(), 8, workers, func(i int) (int, error) {
				if i == 2 {
					panic("kaboom")
				}
				return i, nil
			})
		}()
	}
}

func TestMapSerialPathSpawnsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	_, err := Map(context.Background(), 200, 1, func(i int) (int, error) {
		if g := runtime.NumGoroutine(); g > before {
			return 0, fmt.Errorf("item %d saw %d goroutines, started with %d", i, g, before)
		}
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForEach(t *testing.T) {
	for _, workers := range []int{1, 6} {
		out := make([]int, 64)
		err := ForEach(context.Background(), len(out), workers, func(i int) error {
			out[i] = i + 1
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("workers=%d: out[%d]=%d", workers, i, v)
			}
		}
	}
}

// Parallel output must be byte-identical to serial output, including for
// stochastic work: each item draws from its own Seed-derived stream.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []float64 {
		out, err := Map(context.Background(), 64, workers, func(i int) (float64, error) {
			rng := rand.New(rand.NewSource(Seed(42, i)))
			sum := 0.0
			for k := 0; k < 100; k++ {
				sum += rng.NormFloat64()
			}
			return sum, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	for _, workers := range []int{2, 8} {
		if got := run(workers); !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d output differs from serial", workers)
		}
	}
}

func TestSeedProperties(t *testing.T) {
	// Distinct indices under the same base must yield distinct seeds, and
	// the same (base, index) pair must be stable.
	seen := make(map[int64]int, 10000)
	for i := 0; i < 10000; i++ {
		s := Seed(7, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("Seed(7, %d) == Seed(7, %d) == %d", i, prev, s)
		}
		seen[s] = i
		if s != Seed(7, i) {
			t.Fatalf("Seed(7, %d) not stable", i)
		}
	}
	// Different bases must decorrelate even at index 0.
	if Seed(1, 0) == Seed(2, 0) {
		t.Fatal("Seed(1,0) == Seed(2,0)")
	}
	// Neighbouring indices should not produce near-identical seeds: check
	// the low 32 bits differ (avalanche sanity, not a statistical test).
	for i := 0; i < 100; i++ {
		a, b := Seed(99, i), Seed(99, i+1)
		if uint32(a) == uint32(b) {
			t.Fatalf("low bits collide for indices %d,%d", i, i+1)
		}
	}
}

func BenchmarkMap(b *testing.B) {
	work := func(i int) (float64, error) {
		rng := rand.New(rand.NewSource(Seed(1, i)))
		sum := 0.0
		for k := 0; k < 2000; k++ {
			sum += rng.Float64()
		}
		return sum, nil
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if _, err := Map(context.Background(), 256, workers, work); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package arepas

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"tasq/internal/skyline"
)

func TestSimulateRejectsBadInput(t *testing.T) {
	if _, err := Simulate(skyline.Skyline{1, 2}, 0); err == nil {
		t.Fatal("allocation 0 accepted")
	}
	if _, err := Simulate(skyline.Skyline{1, -1}, 2); err == nil {
		t.Fatal("negative skyline accepted")
	}
}

func TestSimulateEmpty(t *testing.T) {
	got, err := Simulate(skyline.Skyline{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got.Runtime() != 0 {
		t.Fatalf("empty skyline simulated to %v", got)
	}
}

func TestSimulateAtOrAbovePeakIsIdentity(t *testing.T) {
	s := skyline.Skyline{2, 7, 3, 7, 1}
	for _, alloc := range []int{7, 8, 100} {
		got, err := Simulate(s, alloc)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(s) {
			t.Fatalf("alloc %d changed runtime: %v", alloc, got)
		}
		for i := range s {
			if got[i] != s[i] {
				t.Fatalf("alloc %d changed shape at %d: %v", alloc, i, got)
			}
		}
	}
}

func TestSimulateIdentityReturnsCopy(t *testing.T) {
	s := skyline.Skyline{1, 2, 3}
	got, _ := Simulate(s, 10)
	got[0] = 99
	if s[0] != 1 {
		t.Fatal("Simulate must not alias the input skyline")
	}
}

// TestSimulatePaperFigure7 reproduces the paper's Figure 7 scenario: a flat
// section at 7 tokens for 4 seconds (28 token-seconds) capped at 3 tokens
// must stretch to ceil(28/3) = 10 seconds.
func TestSimulatePaperFigure7(t *testing.T) {
	s := skyline.Skyline{1, 1, 7, 7, 7, 7, 1, 1}
	got, err := Simulate(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Runtime() != 2+10+2 {
		t.Fatalf("runtime = %d, want 14", got.Runtime())
	}
	if got.Area() != s.Area() {
		t.Fatalf("area changed: %d -> %d", s.Area(), got.Area())
	}
	// Leading and trailing under-sections are copied unchanged (Figure 6).
	if got[0] != 1 || got[1] != 1 || got[len(got)-1] != 1 || got[len(got)-2] != 1 {
		t.Fatalf("under-allocated sections changed: %v", got)
	}
	// The stretched middle runs flat at the new allocation except for the
	// remainder second (28 = 9×3 + 1).
	for i := 2; i < 11; i++ {
		if got[i] != 3 {
			t.Fatalf("stretched section not flat at 3: %v", got)
		}
	}
	if got[11] != 1 {
		t.Fatalf("remainder second = %d, want 1", got[11])
	}
}

func TestSimulateAreaPreservedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSkyline(rng, 1+rng.Intn(300), 1+rng.Intn(60))
		alloc := 1 + rng.Intn(70)
		got, err := Simulate(s, alloc)
		if err != nil {
			return false
		}
		return got.Area() == s.Area()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateNeverExceedsAllocationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSkyline(rng, 1+rng.Intn(300), 1+rng.Intn(60))
		alloc := 1 + rng.Intn(70)
		got, err := Simulate(s, alloc)
		if err != nil {
			return false
		}
		if s.Peak() <= alloc {
			return true // identity case: original may legitimately exceed nothing
		}
		for _, v := range got {
			if int(v) > alloc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateRuntimeRoughlyMonotoneProperty(t *testing.T) {
	// Run time must not increase with more tokens, up to the per-section
	// ceiling slack (each over-section can round up by at most one second).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSkyline(rng, 1+rng.Intn(200), 1+rng.Intn(40))
		a1 := 1 + rng.Intn(40)
		a2 := a1 + 1 + rng.Intn(10)
		r1, err1 := SimulateRuntime(s, a1)
		r2, err2 := SimulateRuntime(s, a2)
		if err1 != nil || err2 != nil {
			return false
		}
		slack := len(s.Sections(a2)) // ceiling can cost ≤1s per section
		return r2 <= r1+slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateUnderSectionsUnchangedProperty(t *testing.T) {
	// Figure 6's guarantee: every under-allocation section appears intact
	// (same values, same order) in the simulated skyline.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSkyline(rng, 1+rng.Intn(120), 1+rng.Intn(30))
		alloc := 1 + rng.Intn(35)
		got, err := Simulate(s, alloc)
		if err != nil {
			return false
		}
		// Walk the original sections and locate each in the output; the
		// simulator preserves section order.
		pos := 0
		for _, sec := range s.Sections(alloc) {
			if sec.Over {
				var area int
				for t := sec.Start; t < sec.End; t++ {
					area += int(s[t])
				}
				pos += (area + alloc - 1) / alloc
				continue
			}
			for t := sec.Start; t < sec.End; t++ {
				if got[pos] != s[t] {
					return false
				}
				pos++
			}
		}
		return pos == got.Runtime()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSweep(t *testing.T) {
	s := skyline.Skyline{5, 5, 5, 5}
	pts, err := Sweep(s, []int{5, 4, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	wantRuntimes := []int{4, 5, 10, 20}
	for i, p := range pts {
		if p.Runtime != wantRuntimes[i] {
			t.Fatalf("sweep[%d] = %+v, want runtime %d", i, p, wantRuntimes[i])
		}
	}
}

func TestSweepPropagatesError(t *testing.T) {
	if _, err := Sweep(skyline.Skyline{1}, []int{1, 0}); err == nil {
		t.Fatal("sweep must propagate simulation errors")
	}
}

func TestFractionGrid(t *testing.T) {
	grid := FractionGrid(100, []float64{0.2, 0.5, 1.0})
	want := []int{20, 50, 100}
	if len(grid) != len(want) {
		t.Fatalf("grid = %v, want %v", grid, want)
	}
	for i := range want {
		if grid[i] != want[i] {
			t.Fatalf("grid = %v, want %v", grid, want)
		}
	}
}

func TestFractionGridDeduplicatesAndClamps(t *testing.T) {
	grid := FractionGrid(3, []float64{0.1, 0.2, 0.5, 1.0, 1.5})
	// 0.1×3 and 0.2×3 both clamp/round to values that collide; ensure
	// uniqueness, bounds, and ascending order.
	seen := map[int]bool{}
	prev := 0
	for _, g := range grid {
		if g < 1 || g > 3 {
			t.Fatalf("grid value %d out of [1,3]", g)
		}
		if seen[g] {
			t.Fatalf("duplicate grid value %d in %v", g, grid)
		}
		if g <= prev {
			t.Fatalf("grid not ascending: %v", grid)
		}
		seen[g] = true
		prev = g
	}
	if FractionGrid(0, []float64{0.5}) != nil {
		t.Fatal("reference < 1 must give nil grid")
	}
}

func TestAugmentForXGBoostUnderAllocated(t *testing.T) {
	// Peak 10 == allocation 10: no over-allocation points.
	s := skyline.Skyline{10, 10, 2, 2}
	pts, err := AugmentForXGBoost(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3 (observed + 80%% + 60%%): %+v", len(pts), pts)
	}
	if pts[0].Synthetic || pts[0].Tokens != 10 || pts[0].Runtime != 4 {
		t.Fatalf("observed point wrong: %+v", pts[0])
	}
	if pts[1].Tokens != 8 || !pts[1].Synthetic {
		t.Fatalf("80%% point wrong: %+v", pts[1])
	}
	if pts[2].Tokens != 6 || !pts[2].Synthetic {
		t.Fatalf("60%% point wrong: %+v", pts[2])
	}
	// Fewer tokens must not run faster.
	if pts[1].Runtime < pts[0].Runtime || pts[2].Runtime < pts[1].Runtime {
		t.Fatalf("augmented runtimes not non-decreasing as tokens shrink: %+v", pts)
	}
}

func TestAugmentForXGBoostOverAllocated(t *testing.T) {
	// Peak 5 < allocation 10: adds floored points at 120% and 140% of peak.
	s := skyline.Skyline{5, 3, 2}
	pts, err := AugmentForXGBoost(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("got %d points, want 5: %+v", len(pts), pts)
	}
	if pts[3].Tokens != 6 || pts[3].Runtime != 3 {
		t.Fatalf("120%%-of-peak point = %+v, want tokens 6 runtime 3", pts[3])
	}
	if pts[4].Tokens != 7 || pts[4].Runtime != 3 {
		t.Fatalf("140%%-of-peak point = %+v, want tokens 7 runtime 3", pts[4])
	}
}

func TestAugmentForXGBoostBadAllocation(t *testing.T) {
	if _, err := AugmentForXGBoost(skyline.Skyline{1}, 0); err == nil {
		t.Fatal("allocation 0 accepted")
	}
}

func randomSkyline(rng *rand.Rand, n, maxTok int) skyline.Skyline {
	s := make(skyline.Skyline, n)
	for i := range s {
		s[i] = int32(rng.Intn(maxTok + 1))
	}
	return s
}

// requireCountMatchesSimulate holds SimulateRuntime to its contract: the
// length of the skyline Simulate builds (res, err are Simulate's results
// for the same arguments), or the very same error.
func requireCountMatchesSimulate(t *testing.T, orig skyline.Skyline, newAlloc int, res skyline.Skyline, err error) {
	t.Helper()
	rt, rtErr := SimulateRuntime(orig, newAlloc)
	if (err == nil) != (rtErr == nil) || (err != nil && err.Error() != rtErr.Error()) {
		t.Fatalf("alloc %d: Simulate error %v, SimulateRuntime error %v", newAlloc, err, rtErr)
	}
	if errors.Is(err, ErrNonPositiveAllocation) != errors.Is(rtErr, ErrNonPositiveAllocation) {
		t.Fatalf("alloc %d: errors wrap differently: %v vs %v", newAlloc, err, rtErr)
	}
	if rt != len(res) {
		t.Fatalf("alloc %d on %d seconds: SimulateRuntime %d, len(Simulate) %d", newAlloc, len(orig), rt, len(res))
	}
}

// SimulateRuntime counts what Simulate would build. The property runs over
// random skylines shaped to hit every branch of the walk: empty, all-zero
// seconds, peak at or under the allocation, valleys of zeros between
// over-runs, an over-run reaching the last second, allocations below one
// and skylines with a negative second somewhere.
func TestSimulateRuntimeIsLenOfSimulate(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 4000; trial++ {
		n := rng.Intn(40)
		if trial%50 == 0 {
			n = 0
		}
		peak := 1 + rng.Intn(60)
		s := make(skyline.Skyline, n)
		for i := range s {
			switch rng.Intn(4) {
			case 0: // a valley: zero seconds count as themselves
			default:
				s[i] = int32(rng.Intn(peak + 1))
			}
		}
		var newAlloc int
		switch trial % 8 {
		case 0:
			newAlloc = -rng.Intn(3) // 0, -1, -2: below one token
		case 1:
			clear(s) // all-zero seconds
			newAlloc = 1 + rng.Intn(peak)
		case 2:
			newAlloc = s.Peak() + rng.Intn(2) // peak ≤ alloc: the identity
		case 3:
			if n > 0 { // one over-run reaching the last second
				newAlloc = 1 + rng.Intn(peak)
				for i := n - 1 - rng.Intn(n); i < n; i++ {
					s[i] = int32(newAlloc + 1 + rng.Intn(peak))
				}
			}
		case 4:
			if n > 0 { // invalid: a negative second, sometimes behind an over-run
				s[rng.Intn(n)] = int32(-1 - rng.Intn(5))
			}
			newAlloc = rng.Intn(peak + 1)
		default:
			newAlloc = 1 + rng.Intn(peak+5)
		}
		res, err := Simulate(s, newAlloc)
		requireCountMatchesSimulate(t, s, newAlloc, res, err)
		if err == nil && newAlloc >= s.Peak() && len(res) != len(s) {
			t.Fatalf("alloc %d ≥ peak %d: runtime changed %d -> %d", newAlloc, s.Peak(), len(s), len(res))
		}
	}
}

// A sweep makes one allocation, its result slice, however long the
// skyline and the grid: no grid point builds a skyline.
func TestSweepAllocatesOnlyItsResult(t *testing.T) {
	s := benchSkyline(1800)
	grid := FractionGrid(200, GridFractions)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Sweep(s, grid); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("Sweep allocates %.0f times, want 1", allocs)
	}
}

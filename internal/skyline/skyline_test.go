package skyline

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	if err := (Skyline{1, 2, 3}).Validate(); err != nil {
		t.Fatalf("valid skyline rejected: %v", err)
	}
	if err := (Skyline{1, -2, 3}).Validate(); err == nil {
		t.Fatal("negative usage accepted")
	}
}

func TestBasicGeometry(t *testing.T) {
	s := Skyline{2, 4, 6, 4, 2}
	if got := s.Runtime(); got != 5 {
		t.Fatalf("runtime = %d, want 5", got)
	}
	if got := s.Area(); got != 18 {
		t.Fatalf("area = %d, want 18", got)
	}
	if got := s.Peak(); got != 6 {
		t.Fatalf("peak = %d, want 6", got)
	}
	if got := s.MeanUsage(); got != 3.6 {
		t.Fatalf("mean = %v, want 3.6", got)
	}
}

func TestEmptySkyline(t *testing.T) {
	var s Skyline
	if s.Area() != 0 || s.Peak() != 0 || s.MeanUsage() != 0 || s.Peakiness() != 0 {
		t.Fatal("empty skyline geometry must be zero")
	}
	if s.Sections(3) != nil {
		t.Fatal("empty skyline must have no sections")
	}
}

func TestPeakiness(t *testing.T) {
	flat := Skyline{5, 5, 5, 5}
	if got := flat.Peakiness(); got != 0 {
		t.Fatalf("flat peakiness = %v, want 0", got)
	}
	peaky := Skyline{10, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	if got := peaky.Peakiness(); got != 0.9 {
		t.Fatalf("peaky peakiness = %v, want 0.9", got)
	}
}

func TestSections(t *testing.T) {
	s := Skyline{1, 1, 5, 5, 2, 6, 1}
	secs := s.Sections(3)
	want := []Section{
		{Start: 0, End: 2, Over: false},
		{Start: 2, End: 4, Over: true},
		{Start: 4, End: 5, Over: false},
		{Start: 5, End: 6, Over: true},
		{Start: 6, End: 7, Over: false},
	}
	if len(secs) != len(want) {
		t.Fatalf("got %d sections, want %d: %+v", len(secs), len(want), secs)
	}
	for i := range want {
		if secs[i] != want[i] {
			t.Fatalf("section %d = %+v, want %+v", i, secs[i], want[i])
		}
	}
}

func TestSectionsExactlyAtThresholdAreUnder(t *testing.T) {
	s := Skyline{3, 3, 3}
	secs := s.Sections(3)
	if len(secs) != 1 || secs[0].Over {
		t.Fatalf("usage == threshold must be 'under': %+v", secs)
	}
}

func TestSectionsPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSkyline(rng, 1+rng.Intn(200), 20)
		th := rng.Intn(22)
		secs := s.Sections(th)
		// Sections must tile [0, len) exactly, alternate Over, and be
		// internally consistent with the threshold.
		pos := 0
		for i, sec := range secs {
			if sec.Start != pos || sec.Len() <= 0 {
				return false
			}
			if i > 0 && secs[i-1].Over == sec.Over {
				return false
			}
			for t := sec.Start; t < sec.End; t++ {
				if (int(s[t]) > th) != sec.Over {
					return false
				}
			}
			pos = sec.End
		}
		return pos == len(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBands(t *testing.T) {
	s := Skyline{1, 3, 6, 10}
	bands := s.Bands(10)
	want := []UtilizationBand{BandMinimum, BandLow, BandModerate, BandModerate}
	for i := range want {
		if bands[i] != want[i] {
			t.Fatalf("bands = %v, want %v", bands, want)
		}
	}
}

func TestBandsZeroAllocation(t *testing.T) {
	for _, b := range (Skyline{5, 5}).Bands(0) {
		if b != BandMinimum {
			t.Fatal("zero allocation must give all-minimum bands")
		}
	}
}

func TestSummarizeBandsSumsToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSkyline(rng, 1+rng.Intn(100), 50)
		sum := s.SummarizeBands(40)
		total := sum.Minimum + sum.Low + sum.Moderate
		return total > 0.999 && total < 1.001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOverAllocation(t *testing.T) {
	s := Skyline{2, 4, 6}
	// Allocation 5: waste = 3 + 1 + 0 = 4 (second over the allocation
	// contributes zero).
	if got := s.OverAllocation(5); got != 4 {
		t.Fatalf("over-allocation = %d, want 4", got)
	}
	// Default-style generous allocation.
	if got := s.OverAllocation(10); got != 30-12 {
		t.Fatalf("over-allocation = %d, want 18", got)
	}
}

func TestAdaptivePeakAllocation(t *testing.T) {
	// Usage 4,2,6,1: remaining peaks are 6,6,6,1 → total 19.
	s := Skyline{4, 2, 6, 1}
	if got := s.AdaptivePeakAllocation(); got != 19 {
		t.Fatalf("adaptive peak = %d, want 19", got)
	}
}

func TestAdaptivePeakBetweenUsageAndPeakProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSkyline(rng, 1+rng.Intn(150), 30)
		adaptive := s.AdaptivePeakAllocation()
		peakTotal := s.Peak() * s.Runtime()
		return adaptive >= s.Area() && adaptive <= peakTotal
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResample(t *testing.T) {
	s := Skyline{2, 4, 6, 8, 10}
	got := s.Resample(2)
	want := []float64{3, 7, 10}
	if len(got) != len(want) {
		t.Fatalf("resample = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resample = %v, want %v", got, want)
		}
	}
	if got := s.Resample(0); len(got) != 5 {
		t.Fatalf("width<1 must behave as 1, got %v", got)
	}
}

func TestAreaDifferenceFraction(t *testing.T) {
	a := Skyline{5, 5} // area 10
	b := Skyline{4, 4} // area 8
	if got := AreaDifferenceFraction(a, b); got != 0.2 {
		t.Fatalf("area diff = %v, want 0.2", got)
	}
	if got := AreaDifferenceFraction(b, a); got != 0.2 {
		t.Fatalf("area diff must be symmetric, got %v", got)
	}
	if got := AreaDifferenceFraction(Skyline{}, Skyline{}); got != 0 {
		t.Fatalf("empty-vs-empty diff = %v, want 0", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	s := Skyline{1, 2, 3}
	c := s.Clone()
	c[0] = 99
	if s[0] != 1 {
		t.Fatal("clone shares storage with original")
	}
}

func randomSkyline(rng *rand.Rand, n, maxTok int) Skyline {
	s := make(Skyline, n)
	for i := range s {
		s[i] = int32(rng.Intn(maxTok + 1))
	}
	return s
}

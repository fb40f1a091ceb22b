package skyline

import "testing"

// FuzzSkylineValidate throws arbitrary (including negative) usage series at
// the skyline operations: Validate must reject exactly the skylines with a
// negative second and nothing else, and the section/band/resample helpers
// must not panic on any input — valid or not — since flighted telemetry is
// parsed before it is validated.
func FuzzSkylineValidate(f *testing.F) {
	f.Add([]byte{}, 0)
	f.Add([]byte{0, 0, 0, 0}, 1)
	f.Add([]byte{1, 2, 3, 2, 1}, 2)
	f.Add([]byte{0xFF, 0xFF}, -1) // int8(0xFF) = -1: a negative second
	f.Add([]byte{0x7F, 0x80, 0x7F}, 100)
	f.Add([]byte{10, 0, 10, 0, 10, 0}, 5)
	f.Fuzz(func(t *testing.T, data []byte, threshold int) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		s := make(Skyline, len(data))
		negative := false
		for i, b := range data {
			s[i] = int32(int8(b)) // signed: exercise the invalid range too
			if s[i] < 0 {
				negative = true
			}
		}

		if err := s.Validate(); (err != nil) != negative {
			t.Fatalf("Validate() = %v, want error iff a negative second exists (%v)", err, negative)
		}

		// The derived views must not panic on any input, and the section
		// list must partition [0, len) into alternating over/under runs.
		secs := s.Sections(threshold)
		at := 0
		for i, sec := range secs {
			if sec.Start != at || sec.End <= sec.Start {
				t.Fatalf("section %d = %+v does not continue partition at %d", i, sec, at)
			}
			if i > 0 && secs[i-1].Over == sec.Over {
				t.Fatalf("sections %d and %d both Over=%v (not maximal)", i-1, i, sec.Over)
			}
			for j := sec.Start; j < sec.End; j++ {
				if (int(s[j]) > threshold) != sec.Over {
					t.Fatalf("second %d (usage %d) misclassified by section %+v at threshold %d", j, s[j], sec, threshold)
				}
			}
			at = sec.End
		}
		if at != len(s) {
			t.Fatalf("sections cover [0,%d), skyline has %d seconds", at, len(s))
		}

		if bands := s.Bands(threshold); len(bands) != len(s) {
			t.Fatalf("Bands returned %d entries for %d seconds", len(bands), len(s))
		}
		s.SummarizeBands(threshold)
		s.OverAllocation(threshold)
		s.AdaptivePeakAllocation()
		s.Peakiness()
		s.MeanUsage()
		if w := threshold&0x3F + 1; len(s) > 0 {
			want := (len(s) + w - 1) / w
			if rs := s.Resample(w); len(rs) != want {
				t.Fatalf("Resample(%d) returned %d buckets, want %d", w, len(rs), want)
			}
		}
	})
}

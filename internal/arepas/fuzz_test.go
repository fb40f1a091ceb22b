package arepas

import (
	"errors"
	"testing"

	"tasq/internal/skyline"
)

// skylineFromBytes decodes fuzz data into a valid (non-negative) skyline,
// capped so a 1-token simulation cannot balloon the output: with ≤ 4096
// seconds of ≤ 255 tokens each, the flattened skyline stays ≤ ~1M seconds.
func skylineFromBytes(data []byte) skyline.Skyline {
	if len(data) > 4096 {
		data = data[:4096]
	}
	s := make(skyline.Skyline, len(data))
	for i, b := range data {
		s[i] = int32(b)
	}
	return s
}

// FuzzArepasSimulate checks Algorithm 1's invariants on arbitrary skylines
// and allocations: the simulated skyline is valid, never exceeds the new
// allocation, preserves the area under the skyline exactly (the remainder
// fix on each flattened section's final second), and never gets faster
// with fewer tokens. The count-only SimulateRuntime must be the length of
// that skyline, or fail with the same error.
func FuzzArepasSimulate(f *testing.F) {
	f.Add([]byte{}, 1)
	f.Add([]byte{0, 0, 0}, 2)
	f.Add([]byte{10, 20, 30, 20, 10}, 15)
	f.Add([]byte{255, 255, 1, 255}, 7)
	f.Add([]byte{5, 5, 5, 5}, 100)
	f.Add([]byte{1}, -3)
	f.Add([]byte{200, 0, 200, 0, 200}, 1)
	f.Fuzz(func(t *testing.T, data []byte, newAlloc int) {
		orig := skylineFromBytes(data)
		res, err := Simulate(orig, newAlloc)
		requireCountMatchesSimulate(t, orig, newAlloc, res, err)
		if newAlloc < 1 {
			if !errors.Is(err, ErrNonPositiveAllocation) {
				t.Fatalf("alloc %d: got err %v, want ErrNonPositiveAllocation", newAlloc, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("alloc %d: unexpected error %v", newAlloc, err)
		}
		if err := res.Validate(); err != nil {
			t.Fatalf("alloc %d: simulated skyline invalid: %v", newAlloc, err)
		}
		if peak := res.Peak(); peak > newAlloc {
			t.Fatalf("alloc %d: simulated peak %d exceeds allocation", newAlloc, peak)
		}
		if got, want := res.Area(), orig.Area(); got != want {
			t.Fatalf("alloc %d: area %d, want %d (area must be preserved)", newAlloc, got, want)
		}
		if res.Runtime() < orig.Runtime() {
			t.Fatalf("alloc %d: runtime %d < original %d (fewer tokens cannot speed the job up)",
				newAlloc, res.Runtime(), orig.Runtime())
		}
		// Simulating at the original peak (or above) must be the identity.
		if newAlloc >= orig.Peak() && res.Runtime() != orig.Runtime() {
			t.Fatalf("alloc %d ≥ peak %d: runtime changed %d -> %d",
				newAlloc, orig.Peak(), orig.Runtime(), res.Runtime())
		}
	})
}

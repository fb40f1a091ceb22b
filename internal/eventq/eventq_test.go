package eventq

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is container/heap over the same (time, value) entries: the
// reference the queue's order of ties must reproduce.
type refHeap []item[int]

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(item[int])) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TestQueueMatchesContainerHeap drives the queue and container/heap with
// the same random pushes and pops, over time ranges narrow enough that
// most times are tied, and requires the same (time, value) at every pop:
// the simulators that moved onto the queue keep their event order.
func TestQueueMatchesContainerHeap(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		span := []int{1, 2, 3, 8, 1000}[seed%5] // distinct times
		var q Queue[int]
		if seed%2 == 0 {
			q = New[int](rng.Intn(20))
		}
		ref := &refHeap{}
		for op := 0; op < 2000; op++ {
			if q.Len() != ref.Len() {
				t.Fatalf("seed %d op %d: Len %d, reference %d", seed, op, q.Len(), ref.Len())
			}
			if ref.Len() > 0 && rng.Intn(5) < 2 {
				if q.At() != (*ref)[0].at {
					t.Fatalf("seed %d op %d: At %d, reference %d", seed, op, q.At(), (*ref)[0].at)
				}
				at, v := q.Pop()
				want := heap.Pop(ref).(item[int])
				if at != want.at || v != want.v {
					t.Fatalf("seed %d op %d: popped (%d, %d), reference (%d, %d)", seed, op, at, v, want.at, want.v)
				}
				continue
			}
			at := rng.Intn(span) - span/2
			q.Push(at, op)
			heap.Push(ref, item[int]{at, op})
		}
		for ref.Len() > 0 {
			at, v := q.Pop()
			if want := heap.Pop(ref).(item[int]); at != want.at || v != want.v {
				t.Fatalf("seed %d drain: popped (%d, %d), reference (%d, %d)", seed, at, v, want.at, want.v)
			}
		}
		if q.Len() != 0 {
			t.Fatalf("seed %d: %d entries left after the reference drained", seed, q.Len())
		}
	}
}

// TestQueueAllocationFree pins that pushes and pops within capacity
// allocate nothing: no value is boxed.
func TestQueueAllocationFree(t *testing.T) {
	q := New[[3]int](64)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			q.Push((i*37)%11, [3]int{i, i, i})
		}
		for q.Len() > 0 {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per 64 pushes and pops, want 0", allocs)
	}
}

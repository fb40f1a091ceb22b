// Package eventq is the min-heap that advances simulated time: the
// planner's release queue and the executor's task events and ready stages.
// Values are stored inline, so a push or a pop allocates nothing beyond
// the slice's amortised growth — container/heap boxes one value per call.
//
// The sift rules are container/heap's, comparison for comparison, so a
// sequence of pushes and pops yields the same order of tied times as it
// did there.
package eventq

// Queue is a min-heap of values keyed on an int time. The zero value is an
// empty queue.
type Queue[V any] struct {
	items []item[V]
}

type item[V any] struct {
	at int
	v  V
}

// New returns an empty queue with room for capacity entries before its
// first regrowth.
func New[V any](capacity int) Queue[V] {
	return Queue[V]{items: make([]item[V], 0, capacity)}
}

// Len is the number of queued entries.
func (q *Queue[V]) Len() int { return len(q.items) }

// At is the earliest queued time. It panics on an empty queue.
func (q *Queue[V]) At() int { return q.items[0].at }

// Push queues v at time at.
func (q *Queue[V]) Push(at int, v V) {
	s := append(q.items, item[V]{at, v})
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].at <= s[i].at {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
	q.items = s
}

// Pop removes and returns an entry at the earliest time. It panics on an
// empty queue.
func (q *Queue[V]) Pop() (at int, v V) {
	s := q.items
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s[r].at < s[c].at {
			c = r
		}
		if s[i].at <= s[c].at {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	q.items = s
	return top.at, top.v
}

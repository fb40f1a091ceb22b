package linalg

import "sync"

// Scratch is the arena behind one gradient-free forward pass: every
// intermediate matrix of an NN or GNN inference is carved out of one
// backing slice, so a warm Scratch serves a whole pass without touching
// the allocator. Matrices handed out stay valid until Release; their
// contents start unspecified, so every kernel writing into one must
// overwrite it fully (MatMulInto clears its destination itself).
//
// GetScratch/Release serve inference from a process-wide pool; a long-lived
// owner (the autodiff tape) instead holds a Scratch value of its own and
// calls Reset between passes. A Scratch is not safe for concurrent use.
type Scratch struct {
	buf  []float64
	hdrs []Matrix
	// floats and mats count what the current pass has been handed.
	floats, mats int
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch takes an empty arena from the process-wide pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// Release invalidates every matrix the arena handed out and returns it to
// the pool, sized so that a pass like the one just finished fits without
// growing.
func (s *Scratch) Release() {
	s.Reset()
	scratchPool.Put(s)
}

// Reset invalidates every matrix the arena handed out and keeps the arena,
// sized so that a pass like the one just finished fits without growing.
func (s *Scratch) Reset() {
	if s.floats > cap(s.buf) {
		s.buf = make([]float64, 0, s.floats)
	}
	if s.mats > cap(s.hdrs) {
		s.hdrs = make([]Matrix, 0, s.mats)
	}
	s.buf, s.hdrs = s.buf[:0], s.hdrs[:0]
	s.floats, s.mats = 0, 0
}

// Matrix carves a rows x cols matrix out of the arena. When the backing
// slice (or the header slab) is exhausted mid-pass a fresh one replaces
// it; matrices already handed out keep the old storage, so they stay
// valid.
func (s *Scratch) Matrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative scratch dimensions")
	}
	n := rows * cols
	s.floats += n
	s.mats++
	if len(s.buf)+n > cap(s.buf) {
		s.buf = make([]float64, 0, 2*s.floats)
	}
	lo := len(s.buf)
	s.buf = s.buf[:lo+n]
	if len(s.hdrs) == cap(s.hdrs) {
		s.hdrs = make([]Matrix, 0, 2*s.mats+6)
	}
	s.hdrs = append(s.hdrs, Matrix{Rows: rows, Cols: cols, Data: s.buf[lo : lo+n : lo+n]})
	return &s.hdrs[len(s.hdrs)-1]
}

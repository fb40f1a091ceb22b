package gnn

import (
	"math/rand"
	"testing"

	"tasq/internal/features"
	"tasq/internal/ml/autodiff"
)

func BenchmarkForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := New(rng, DefaultConfig(features.OperatorDim))
	f, adj := ringGraph(30, features.OperatorDim, rng)
	// One tape, recycled after every pass, as the trainer runs it.
	tape := autodiff.NewTape()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, _ := m.Forward(tape, tape.Const(f), tape.Const(adj))
		autodiff.Backward(autodiff.Mean(autodiff.Abs(out)))
		tape.Reset()
	}
}

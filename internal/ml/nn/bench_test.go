package nn

import (
	"math/rand"
	"testing"

	"tasq/internal/ml/autodiff"
	"tasq/internal/ml/linalg"
)

func BenchmarkMLPEpoch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP(rng, []int{53, 32, 32, 2}, ActReLU)
	x := linalg.New(512, 53)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	// One tape, recycled after every pass, as the trainer runs it.
	tape := autodiff.NewTape()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, _ := m.Forward(tape, tape.Const(x))
		autodiff.Backward(autodiff.Mean(autodiff.Abs(out)))
		tape.Reset()
	}
}

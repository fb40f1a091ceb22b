package gbt

import (
	"math/rand"
	"testing"

	"tasq/internal/ml/linalg"
)

// trainFixture is BenchmarkTrain's data set: 1000 rows x 20 features, a
// noisy linear target.
func trainFixture() (*linalg.Matrix, []float64) {
	rng := rand.New(rand.NewSource(1))
	n := 1000
	x := linalg.New(n, 20)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 20; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
		y[i] = 100 + 10*x.At(i, 0) + rng.NormFloat64()
	}
	return x, y
}

func BenchmarkTrain(b *testing.B) {
	x, y := trainFixture()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Train(x, y, config(30, 4, 2)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 500
	x := linalg.New(n, 20)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 20; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
		y[i] = 100 + 10*x.At(i, 0)
	}
	m, err := Train(x, y, config(100, 5, 4))
	if err != nil {
		b.Fatal(err)
	}
	row := x.Row(0)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Predict(row)
	}
}

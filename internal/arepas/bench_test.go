package arepas

import (
	"math/rand"
	"testing"

	"tasq/internal/skyline"
)

func benchSkyline(n int) skyline.Skyline {
	rng := rand.New(rand.NewSource(1))
	s := make(skyline.Skyline, n)
	for i := range s {
		s[i] = int32(rng.Intn(200))
	}
	return s
}

func BenchmarkSimulate(b *testing.B) {
	s := benchSkyline(3600) // an hour-long job
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(s, 60); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweep(b *testing.B) {
	s := benchSkyline(1800)
	grid := FractionGrid(200, GridFractions)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(s, grid); err != nil {
			b.Fatal(err)
		}
	}
}

package gbt

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"

	"tasq/internal/ml/linalg"
)

func trainedModel(t *testing.T, obj Objective) (*Model, *linalg.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	n := 300
	x := linalg.New(n, 3)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, rng.Float64()*10)
		}
		y[i] = 5 + x.At(i, 0)*3 + x.At(i, 1)
	}
	cfg := config(40, 4, 10)
	cfg.Objective = obj
	m, err := Train(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, x
}

func TestGobRoundTripBitIdentical(t *testing.T) {
	for _, obj := range []Objective{Squared, Gamma} {
		m, x := trainedModel(t, obj)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(m); err != nil {
			t.Fatal(err)
		}
		var loaded Model
		if err := gob.NewDecoder(&buf).Decode(&loaded); err != nil {
			t.Fatal(err)
		}
		if loaded.NumTrees() != m.NumTrees() {
			t.Fatalf("tree count %d != %d", loaded.NumTrees(), m.NumTrees())
		}
		for i := 0; i < x.Rows; i += 7 {
			if got, want := loaded.Predict(x.Row(i)), m.Predict(x.Row(i)); got != want {
				t.Fatalf("objective %v row %d: %v != %v", obj, i, got, want)
			}
		}
	}
}

func TestGobDecodeRejectsCorruptTree(t *testing.T) {
	// Build a DTO with an out-of-range child index and ensure decode
	// refuses it rather than panicking later at prediction time.
	dto := modelDTO{
		Cfg:  DefaultConfig(),
		Base: 1,
		Trees: []treeDTO{{Nodes: []nodeDTO{
			{Feature: 0, Threshold: 1, Left: 5, Right: 6, Value: 0},
		}}},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(dto); err != nil {
		t.Fatal(err)
	}
	var m Model
	if err := m.GobDecode(buf.Bytes()); err == nil {
		t.Fatal("corrupt tree accepted")
	}
}

func TestGobDecodeGarbage(t *testing.T) {
	var m Model
	if err := m.GobDecode([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
}

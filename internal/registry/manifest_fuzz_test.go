package registry

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzManifest writes arbitrary bytes as v0001/manifest.json beside a real
// payload. Every reader of the manifest must return a value or a typed
// error, never panic, and Get must never hand out a payload its manifest
// does not vouch for.
func FuzzManifest(f *testing.F) {
	const payload = "model one"
	src, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if _, err := src.Publish([]byte(payload), Manifest{
		Format: "test/raw", Predictors: []string{"NN"},
		EvalMetrics: map[string]float64{"runtime_median_ae": 0.25},
		Annotations: map[string]string{WaveStateKey: WaveStatePromoting, WaveAdoptedKey: "a,b"},
	}); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(src.Root(), versionDir(1), manifestFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	for _, n := range []int{len(good) / 4, len(good) / 2, len(good) - 2} {
		f.Add(good[:n])
	}
	f.Add([]byte(`{"version":2,"sha256":"x"}`))
	f.Add([]byte("null"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		root := t.TempDir()
		dir := filepath.Join(root, versionDir(1))
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, payloadFile), []byte(payload), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(root)
		if err != nil {
			t.Fatal(err)
		}
		typed := func(op string, err error) {
			t.Helper()
			if err != nil && !errors.Is(err, ErrManifest) && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrChecksum) {
				t.Fatalf("%s: untyped error %v", op, err)
			}
		}
		m, err := r.Manifest(1)
		typed("Manifest", err)
		if err == nil && (m.Version != 1 || m.SHA256 == "") {
			t.Fatalf("Manifest accepted version %d, checksum %q", m.Version, m.SHA256)
		}
		_, err = r.List()
		typed("List", err)
		got, _, err := r.Get(1)
		typed("Get", err)
		if err == nil && !bytes.Equal(got, []byte(payload)) {
			t.Fatalf("Get returned %q", got)
		}
		_, err = r.WaveStatus(1)
		typed("WaveStatus", err)
	})
}

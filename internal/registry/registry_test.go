package registry

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func open(t *testing.T) *Registry {
	t.Helper()
	r, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func publish(t *testing.T, r *Registry, payload string) int {
	t.Helper()
	v, err := r.Publish([]byte(payload), Manifest{Format: "test/raw"})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestPublishGetRoundTrip(t *testing.T) {
	r := open(t)
	if _, err := r.Latest(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty registry Latest error %v, want ErrEmpty", err)
	}
	v1 := publish(t, r, "model one")
	v2 := publish(t, r, "model two")
	if v1 != 1 || v2 != 2 {
		t.Fatalf("versions %d, %d, want 1, 2", v1, v2)
	}
	latest, err := r.Latest()
	if err != nil || latest != 2 {
		t.Fatalf("latest %d (%v), want 2", latest, err)
	}
	payload, m, err := r.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "model one" {
		t.Fatalf("payload %q", payload)
	}
	if m.Version != 1 || m.SchemaVersion != ManifestSchemaVersion {
		t.Fatalf("manifest %+v", m)
	}
	if m.SizeBytes != int64(len("model one")) || m.SHA256 == "" {
		t.Fatalf("manifest integrity fields %+v", m)
	}
	if time.Since(m.CreatedAt) > time.Minute || m.CreatedAt.IsZero() {
		t.Fatalf("created at %v", m.CreatedAt)
	}
	if _, _, err := r.Get(99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing version error %v, want ErrNotFound", err)
	}
}

func TestListAscending(t *testing.T) {
	r := open(t)
	for i := 0; i < 3; i++ {
		publish(t, r, "payload")
	}
	ms, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("listed %d, want 3", len(ms))
	}
	for i, m := range ms {
		if m.Version != i+1 {
			t.Fatalf("list[%d].Version = %d", i, m.Version)
		}
	}
}

func TestPublishRejectsEmptyPayload(t *testing.T) {
	r := open(t)
	if _, err := r.Publish(nil, Manifest{}); err == nil {
		t.Fatal("empty payload accepted")
	}
}

func TestPublishAtomicNoTempLeftovers(t *testing.T) {
	r := open(t)
	publish(t, r, "model")
	entries, err := os.ReadDir(r.Root())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			t.Fatalf("temp dir %s left behind", e.Name())
		}
	}
}

// TestOpenIgnoresCrashLeftovers plants a half-published temp directory
// and a stale temp file (as a crash mid-publish or mid-pin would leave)
// and checks they are invisible to reads and swept by GC.
func TestOpenIgnoresCrashLeftovers(t *testing.T) {
	r := open(t)
	publish(t, r, "good")
	stale := filepath.Join(r.Root(), tmpPrefix+"v0002-abc")
	if err := os.MkdirAll(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stale, payloadFile), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	staleFile := filepath.Join(r.Root(), tmpPrefix+pinFile+"-123")
	if err := os.WriteFile(staleFile, []byte("2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	vs, err := r.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0] != 1 {
		t.Fatalf("versions %v, want [1]", vs)
	}
	// The next publish is unaffected and gets v2.
	if v := publish(t, r, "next"); v != 2 {
		t.Fatalf("publish after crash leftover got v%d", v)
	}
	if _, err := r.GC(10); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("GC did not sweep the stale temp dir")
	}
	if _, err := os.Stat(staleFile); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("GC did not sweep the stale temp file")
	}
}

// TestCorruptionTypedErrors pins the distinct-error contract of the
// ISSUE: flipped payload byte → ErrChecksum, missing manifest →
// ErrManifest, and neither ever yields payload bytes.
func TestCorruptionTypedErrors(t *testing.T) {
	t.Run("flipped payload byte", func(t *testing.T) {
		r := open(t)
		v := publish(t, r, "a payload long enough to flip")
		path := filepath.Join(r.Root(), versionDir(v), payloadFile)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		payload, _, err := r.Get(v)
		if payload != nil {
			t.Fatal("corrupt payload returned")
		}
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("error %v, want ErrChecksum", err)
		}
	})
	t.Run("missing manifest", func(t *testing.T) {
		r := open(t)
		v := publish(t, r, "payload")
		if err := os.Remove(filepath.Join(r.Root(), versionDir(v), manifestFile)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.Get(v); !errors.Is(err, ErrManifest) {
			t.Fatalf("error %v, want ErrManifest", err)
		}
		if _, err := r.List(); !errors.Is(err, ErrManifest) {
			t.Fatalf("List error %v, want ErrManifest", err)
		}
	})
	t.Run("manifest version mismatch", func(t *testing.T) {
		r := open(t)
		v := publish(t, r, "payload")
		path := filepath.Join(r.Root(), versionDir(v), manifestFile)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data = bytes.Replace(data, []byte(`"version": 1`), []byte(`"version": 7`), 1)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.Get(v); !errors.Is(err, ErrManifest) {
			t.Fatalf("error %v, want ErrManifest", err)
		}
	})
}

func TestPinUnpin(t *testing.T) {
	r := open(t)
	if err := r.Pin(1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("pinning missing version: %v", err)
	}
	if pinned, err := r.Pinned(); err != nil || pinned != 0 {
		t.Fatalf("fresh registry pinned %d (%v)", pinned, err)
	}
	publish(t, r, "one")
	publish(t, r, "two")
	if err := r.Pin(1); err != nil {
		t.Fatal(err)
	}
	if pinned, err := r.Pinned(); err != nil || pinned != 1 {
		t.Fatalf("pinned %d (%v), want 1", pinned, err)
	}
	if err := r.Pin(2); err != nil {
		t.Fatal(err)
	}
	if pinned, _ := r.Pinned(); pinned != 2 {
		t.Fatalf("re-pin left %d", pinned)
	}
	if err := r.Unpin(); err != nil {
		t.Fatal(err)
	}
	if err := r.Unpin(); !errors.Is(err, ErrNotPinned) {
		t.Fatalf("double unpin: %v", err)
	}
}

func TestGCKeepsNewestAndPinned(t *testing.T) {
	r := open(t)
	for i := 0; i < 5; i++ {
		publish(t, r, "payload")
	}
	if err := r.Pin(2); err != nil {
		t.Fatal(err)
	}
	removed, err := r.GC(2)
	if err != nil {
		t.Fatal(err)
	}
	// Keep 4 and 5 (newest two) plus pinned 2; remove 1 and 3.
	if len(removed) != 2 || removed[0] != 1 || removed[1] != 3 {
		t.Fatalf("removed %v, want [1 3]", removed)
	}
	vs, err := r.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 || vs[0] != 2 || vs[1] != 4 || vs[2] != 5 {
		t.Fatalf("survivors %v, want [2 4 5]", vs)
	}
	// keep < 1 still retains the newest (and pinned).
	if _, err := r.GC(0); err != nil {
		t.Fatal(err)
	}
	vs, _ = r.Versions()
	if len(vs) != 2 || vs[0] != 2 || vs[1] != 5 {
		t.Fatalf("survivors after GC(0) %v, want [2 5]", vs)
	}
}

func TestConcurrentPublish(t *testing.T) {
	r := open(t)
	const n = 8
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := r.Publish([]byte("concurrent payload"), Manifest{})
			done <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	vs, err := r.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != n || vs[0] != 1 || vs[n-1] != n {
		t.Fatalf("versions %v, want 1..%d", vs, n)
	}
}

func TestParseVersionDir(t *testing.T) {
	cases := map[string]int{
		"v0001": 1, "v0042": 42, "v12345": 12345,
		"v": 0, "vx": 0, "v-1": 0, "model": 0, ".tmp-v0001-x": 0, "v00": 0,
	}
	for name, want := range cases {
		if got := parseVersionDir(name); got != want {
			t.Errorf("parseVersionDir(%q) = %d, want %d", name, got, want)
		}
	}
}

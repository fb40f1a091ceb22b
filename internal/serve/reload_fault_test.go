package serve

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tasq/internal/faults"
	"tasq/internal/obs"
	"tasq/internal/registry"
)

// corruptPayload flips one byte of a published version's model.gob on
// disk, simulating post-publish artifact damage.
func corruptPayload(t *testing.T, reg *registry.Registry, version int) {
	t.Helper()
	path := filepath.Join(reg.Root(), versionName(version), "model.gob")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// versionName mirrors the registry's directory naming (v0001, v0002, …)
// so tests can reach artifacts on disk.
func versionName(v int) string { return "v000" + string(rune('0'+v)) }

// TestReloadCorruptArtifactKeepsServing is the satellite contract: a poll
// that hits a corrupt v000N artifact must fail the sync, increment
// tasq_reload_failure_total, and keep serving the previous generation
// without a blip.
func TestReloadCorruptArtifactKeepsServing(t *testing.T) {
	reg, srv, rl, ts, recs := registryServer(t)
	client := NewClient(ts.URL)
	job := recs[0].Job

	// Publish v2, then damage it on disk before any sync sees it.
	p2, _ := registryPipeline(t, 53)
	if _, err := reg.PublishPipeline(p2, registry.Manifest{}); err != nil {
		t.Fatal(err)
	}
	corruptPayload(t, reg, 2)

	err := rl.Sync()
	if !errors.Is(err, registry.ErrChecksum) {
		t.Fatalf("sync against corrupt v2: %v, want ErrChecksum", err)
	}
	if v := srv.ActiveVersion(); v != 1 {
		t.Fatalf("active version %d after failed sync, want 1", v)
	}
	resp, err := client.Score(context.Background(), &ScoreRequest{Job: job})
	if err != nil {
		t.Fatalf("scoring after failed sync: %v", err)
	}
	if resp.ModelVersion != 1 || !resp.CurveValue().Valid() {
		t.Fatalf("response %+v, want a valid v1 score", resp)
	}
	metrics, err := client.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, obs.MetricReloadFailures+" 1") {
		t.Fatalf("reload failure counter missing:\n%s", metrics)
	}

	// A second failing pass counts again; admin reload surfaces the error
	// as a 500 while scoring still works.
	if _, err := client.Reload(context.Background()); err == nil {
		t.Fatal("admin reload against corrupt v2 succeeded")
	}
	metrics, _ = client.Metrics(context.Background())
	if !strings.Contains(metrics, obs.MetricReloadFailures+" 2") {
		t.Fatalf("second failure not counted:\n%s", metrics)
	}
	if _, err := client.Score(context.Background(), &ScoreRequest{Job: job}); err != nil {
		t.Fatalf("scoring after second failed sync: %v", err)
	}
}

// TestReloadTruncatedArtifact: truncation is caught the same way (the
// trainer framing records the payload length and hash).
func TestReloadTruncatedArtifact(t *testing.T) {
	reg, srv, rl, _, _ := registryServer(t)

	p2, _ := registryPipeline(t, 53)
	if _, err := reg.PublishPipeline(p2, registry.Manifest{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(reg.Root(), versionName(2), "model.gob")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	if err := rl.Sync(); err == nil {
		t.Fatal("sync against truncated v2 succeeded")
	}
	if v := srv.ActiveVersion(); v != 1 {
		t.Fatalf("active version %d, want 1", v)
	}
}

// TestReloadDamagedManifest: an unreadable manifest on the newest version
// fails the pass and keeps the old generation.
func TestReloadDamagedManifest(t *testing.T) {
	reg, srv, rl, _, _ := registryServer(t)

	p2, _ := registryPipeline(t, 53)
	if _, err := reg.PublishPipeline(p2, registry.Manifest{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(reg.Root(), versionName(2), "manifest.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := rl.Sync(); !errors.Is(err, registry.ErrManifest) {
		t.Fatalf("sync against damaged manifest: %v, want ErrManifest", err)
	}
	if v := srv.ActiveVersion(); v != 1 {
		t.Fatalf("active version %d, want 1", v)
	}
}

// TestReloadRecoversAfterRepublish: after failed passes against a corrupt
// v2, a clean v3 publish syncs normally — failures are per-pass, not
// sticky.
func TestReloadRecoversAfterRepublish(t *testing.T) {
	reg, srv, rl, _, _ := registryServer(t)

	p2, _ := registryPipeline(t, 53)
	if _, err := reg.PublishPipeline(p2, registry.Manifest{}); err != nil {
		t.Fatal(err)
	}
	corruptPayload(t, reg, 2)
	if err := rl.Sync(); err == nil {
		t.Fatal("sync against corrupt v2 succeeded")
	}

	p3, _ := registryPipeline(t, 59)
	if _, err := reg.PublishPipeline(p3, registry.Manifest{}); err != nil {
		t.Fatal(err)
	}
	if err := rl.Sync(); err != nil {
		t.Fatalf("sync after clean republish: %v", err)
	}
	if v := srv.ActiveVersion(); v != 3 {
		t.Fatalf("active version %d after recovery, want 3", v)
	}
}

// TestReloadInjectedRegistryCorruption wires the fault injector's
// registry hook end to end: a rate-1 corrupt profile makes every sync
// fail with ErrChecksum (the hook's flipped byte trips the SHA-256 check
// exactly like disk damage), and disabling the injector restores reloads.
func TestReloadInjectedRegistryCorruption(t *testing.T) {
	reg, srv, rl, _, _ := registryServer(t)

	inj := faults.New(11, faults.Profile{RegistryCorruptRate: 1})
	reg.SetReadHook(inj.RegistryRead)
	defer reg.SetReadHook(nil)

	p2, _ := registryPipeline(t, 53)
	if _, err := reg.PublishPipeline(p2, registry.Manifest{}); err != nil {
		t.Fatal(err)
	}
	if err := rl.Sync(); !errors.Is(err, registry.ErrChecksum) {
		t.Fatalf("sync under injected corruption: %v, want ErrChecksum", err)
	}
	if v := srv.ActiveVersion(); v != 1 {
		t.Fatalf("active version %d, want 1", v)
	}

	inj.SetEnabled(false)
	if err := rl.Sync(); err != nil {
		t.Fatalf("sync after disabling injector: %v", err)
	}
	if v := srv.ActiveVersion(); v != 2 {
		t.Fatalf("active version %d after recovery, want 2", v)
	}
	if err := inj.Verify(); err != nil {
		t.Fatal(err)
	}
}

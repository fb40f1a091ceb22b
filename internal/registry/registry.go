// Package registry is the model store of the paper's Figure 4 deployment:
// a filesystem-backed, versioned repository of trained pipeline artifacts
// that the training side publishes into and the serving side consumes
// live. Each published version is a directory
//
//	<root>/v0003/
//	    model.gob      the pipeline payload (trainer framing)
//	    manifest.json  schema version, SHA-256, created-at, train summary,
//	                   eval metrics
//
// written crash-safely: the payload and manifest land in a hidden temp
// directory, are fsynced, and the directory is renamed into place, so a
// crash mid-publish can never leave a half-published version visible.
// Every load re-verifies the payload against the manifest's SHA-256. A
// PINNED marker pins serving to a specific version while newer candidates
// are shadow-scored; GC(keep) prunes old versions but never the pinned or
// newest one.
package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tasq/internal/durable"
)

// ManifestSchemaVersion is the current manifest.json schema.
const ManifestSchemaVersion = 1

const (
	payloadFile  = "model.gob"
	manifestFile = "manifest.json"
	pinFile      = "PINNED"
	// tmpPrefix starts publish staging directories and, in
	// internal/durable, every temp file; GC sweeps both by it.
	tmpPrefix = ".tmp-"
)

// Typed registry errors, distinguished with errors.Is.
var (
	// ErrNotFound means the requested version does not exist.
	ErrNotFound = errors.New("registry: version not found")
	// ErrEmpty means the registry holds no published versions yet.
	ErrEmpty = errors.New("registry: no published versions")
	// ErrChecksum means the payload bytes do not match the manifest's
	// SHA-256 — the artifact was corrupted after publish.
	ErrChecksum = errors.New("registry: payload checksum mismatch")
	// ErrManifest means a version directory is missing its manifest or
	// the manifest is unreadable — a half-damaged version.
	ErrManifest = errors.New("registry: bad or missing manifest")
	// ErrNotPinned is returned by Unpin when no pin exists.
	ErrNotPinned = errors.New("registry: no version pinned")
)

// TrainSummary condenses the training configuration and dataset into the
// manifest, so an operator can tell versions apart from `tasq registry
// list` without loading them.
type TrainSummary struct {
	Loss      string `json:"loss,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	Jobs      int    `json:"jobs,omitempty"`
	XGBTrees  int    `json:"xgb_trees,omitempty"`
	NNEpochs  int    `json:"nn_epochs,omitempty"`
	GNNEpochs int    `json:"gnn_epochs,omitempty"`
	SkipNN    bool   `json:"skip_nn,omitempty"`
	SkipGNN   bool   `json:"skip_gnn,omitempty"`
}

// Manifest describes one published version.
type Manifest struct {
	SchemaVersion int       `json:"schema_version"`
	Version       int       `json:"version"`
	CreatedAt     time.Time `json:"created_at"`
	// SHA256 is the hex digest of the payload file; verified on every
	// load.
	SHA256    string `json:"sha256"`
	SizeBytes int64  `json:"size_bytes"`
	// Format names the payload framing (currently "tasq-pipeline/v1").
	Format string       `json:"format"`
	Train  TrainSummary `json:"train,omitempty"`
	// Predictors lists the predictor set the published pipeline can
	// serve by name (trained models and baselines), in registration
	// order — what GET /v1/models will report once this version is
	// loaded.
	Predictors []string `json:"predictors,omitempty"`
	// EvalMetrics carries held-out evaluation numbers, e.g.
	// "runtime_median_ae" — the paper's Tables 4–6 error — so promotion
	// can be judged from the manifest.
	EvalMetrics map[string]float64 `json:"eval_metrics,omitempty"`
	Notes       string             `json:"notes,omitempty"`
	// Annotations are mutable operator/autopilot key/value notes (e.g.
	// promotion and rollback history) merged in after publish via
	// Annotate. They are the only mutable part of a manifest; the payload
	// and its checksum never change.
	Annotations map[string]string `json:"annotations,omitempty"`
}

// ReadHook intercepts payload bytes between the filesystem read and the
// checksum verification in Get. It exists for fault injection in chaos
// tests — simulating slow or corrupted artifact reads — and must return
// either the (possibly transformed) payload or an error. Corrupted bytes
// are caught downstream by the SHA-256 check exactly as real disk
// corruption would be.
type ReadHook func(version int, payload []byte) ([]byte, error)

// Registry is a filesystem-backed versioned model store. Safe for
// concurrent use within a process; cross-process publishers are
// serialized by the atomicity of rename.
type Registry struct {
	root     string
	mu       sync.Mutex // serializes in-process publish/pin/gc
	readHook atomic.Pointer[ReadHook]
}

// SetReadHook installs (or, with nil, removes) the payload read hook.
// Test-only: production reads go straight from disk to verification.
func (r *Registry) SetReadHook(h ReadHook) {
	if h == nil {
		r.readHook.Store(nil)
		return
	}
	r.readHook.Store(&h)
}

// Open opens (creating if needed) a registry rooted at dir.
func Open(dir string) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	return &Registry{root: dir}, nil
}

// Root returns the registry's root directory.
func (r *Registry) Root() string { return r.root }

// versionDir renders the canonical directory name for a version.
func versionDir(v int) string { return fmt.Sprintf("v%04d", v) }

// parseVersionDir extracts a version number from a directory name, or 0.
func parseVersionDir(name string) int {
	if !strings.HasPrefix(name, "v") {
		return 0
	}
	n := 0
	for _, c := range name[1:] {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int(c-'0')
	}
	if len(name) < 2 {
		return 0
	}
	return n
}

// Versions lists the published version numbers in ascending order.
func (r *Registry) Versions() ([]int, error) {
	entries, err := os.ReadDir(r.root)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	var out []int
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if v := parseVersionDir(e.Name()); v > 0 {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out, nil
}

// Latest returns the newest published version number.
func (r *Registry) Latest() (int, error) {
	vs, err := r.Versions()
	if err != nil {
		return 0, err
	}
	if len(vs) == 0 {
		return 0, ErrEmpty
	}
	return vs[len(vs)-1], nil
}

// List returns the manifests of every published version, ascending.
// Versions whose manifest is damaged are reported as errors rather than
// skipped — a registry with a half-damaged version should be noticed.
func (r *Registry) List() ([]Manifest, error) {
	vs, err := r.Versions()
	if err != nil {
		return nil, err
	}
	out := make([]Manifest, 0, len(vs))
	for _, v := range vs {
		m, err := r.Manifest(v)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// Manifest reads and validates the manifest of one version.
func (r *Registry) Manifest(version int) (Manifest, error) {
	dir := filepath.Join(r.root, versionDir(version))
	if _, err := os.Stat(dir); err != nil {
		return Manifest{}, fmt.Errorf("%w: v%d", ErrNotFound, version)
	}
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return Manifest{}, fmt.Errorf("%w: v%d: %v", ErrManifest, version, err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("%w: v%d: %v", ErrManifest, version, err)
	}
	if m.Version != version {
		return Manifest{}, fmt.Errorf("%w: v%d manifest claims version %d", ErrManifest, version, m.Version)
	}
	if m.SHA256 == "" {
		return Manifest{}, fmt.Errorf("%w: v%d manifest has no checksum", ErrManifest, version)
	}
	return m, nil
}

// Get returns the payload bytes and manifest of a version, verifying the
// payload against the manifest's SHA-256.
func (r *Registry) Get(version int) ([]byte, Manifest, error) {
	m, err := r.Manifest(version)
	if err != nil {
		return nil, Manifest{}, err
	}
	payload, err := os.ReadFile(filepath.Join(r.root, versionDir(version), payloadFile))
	if err != nil {
		return nil, Manifest{}, fmt.Errorf("%w: v%d: payload: %v", ErrManifest, version, err)
	}
	if hp := r.readHook.Load(); hp != nil {
		if payload, err = (*hp)(version, payload); err != nil {
			return nil, Manifest{}, fmt.Errorf("%w: v%d: payload: %v", ErrManifest, version, err)
		}
	}
	sum := sha256.Sum256(payload)
	if got := hex.EncodeToString(sum[:]); got != m.SHA256 {
		return nil, Manifest{}, fmt.Errorf("%w: v%d: payload %s, manifest %s", ErrChecksum, version, got, m.SHA256)
	}
	return payload, m, nil
}

// Publish writes a new version holding payload and returns its number.
// The manifest's Version, SchemaVersion, CreatedAt, SHA256 and SizeBytes
// fields are filled in here; callers supply Format, Train, EvalMetrics
// and Notes. The version directory appears atomically or not at all.
func (r *Registry) Publish(payload []byte, m Manifest) (int, error) {
	if len(payload) == 0 {
		return 0, errors.New("registry: empty payload")
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	sum := sha256.Sum256(payload)
	m.SchemaVersion = ManifestSchemaVersion
	m.SHA256 = hex.EncodeToString(sum[:])
	m.SizeBytes = int64(len(payload))
	if m.CreatedAt.IsZero() {
		m.CreatedAt = time.Now().UTC()
	}

	// A concurrent publisher in another process can win the rename race;
	// retry with the next number.
	for attempt := 0; attempt < 10; attempt++ {
		next, err := r.nextVersionLocked()
		if err != nil {
			return 0, err
		}
		m.Version = next
		ok, err := r.tryPublishLocked(payload, m)
		if err != nil {
			return 0, err
		}
		if ok {
			return next, nil
		}
	}
	return 0, errors.New("registry: publish retries exhausted (concurrent publishers)")
}

func (r *Registry) nextVersionLocked() (int, error) {
	vs, err := r.Versions()
	if err != nil {
		return 0, err
	}
	if len(vs) == 0 {
		return 1, nil
	}
	return vs[len(vs)-1] + 1, nil
}

// tryPublishLocked stages payload+manifest in a temp dir and renames it
// to the target version directory. Returns ok=false if the target
// appeared concurrently.
func (r *Registry) tryPublishLocked(payload []byte, m Manifest) (ok bool, err error) {
	manifest, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return false, fmt.Errorf("registry: encoding manifest: %w", err)
	}
	manifest = append(manifest, '\n')

	tmp, err := os.MkdirTemp(r.root, tmpPrefix+versionDir(m.Version)+"-*")
	if err != nil {
		return false, fmt.Errorf("registry: %w", err)
	}
	defer func() {
		if !ok {
			os.RemoveAll(tmp)
		}
	}()
	if err := durable.WriteFile(filepath.Join(tmp, payloadFile), payload); err != nil {
		return false, fmt.Errorf("registry: staging v%d: %w", m.Version, err)
	}
	if err := durable.WriteFile(filepath.Join(tmp, manifestFile), manifest); err != nil {
		return false, fmt.Errorf("registry: staging v%d: %w", m.Version, err)
	}

	dst := filepath.Join(r.root, versionDir(m.Version))
	if err := os.Rename(tmp, dst); err != nil {
		if _, statErr := os.Stat(dst); statErr == nil {
			return false, nil // lost the race; caller retries with next number
		}
		return false, fmt.Errorf("registry: publishing v%d: %w", m.Version, err)
	}
	return true, durable.SyncDir(r.root)
}

// Pin marks a version as the one serving must use, regardless of newer
// publishes; newer versions become shadow candidates.
func (r *Registry) Pin(version int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := r.Manifest(version); err != nil {
		return err
	}
	if err := durable.WriteFile(filepath.Join(r.root, pinFile), []byte(fmt.Sprintf("%d\n", version))); err != nil {
		return fmt.Errorf("registry: pinning v%d: %w", version, err)
	}
	return nil
}

// Unpin removes the pin; serving follows the latest version again.
func (r *Registry) Unpin() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	err := os.Remove(filepath.Join(r.root, pinFile))
	if errors.Is(err, os.ErrNotExist) {
		return ErrNotPinned
	}
	if err != nil {
		return fmt.Errorf("registry: unpinning: %w", err)
	}
	return durable.SyncDir(r.root)
}

// Pinned returns the pinned version, or 0 if nothing is pinned.
func (r *Registry) Pinned() (int, error) {
	data, err := os.ReadFile(filepath.Join(r.root, pinFile))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("registry: reading pin: %w", err)
	}
	var v int
	if _, err := fmt.Sscanf(strings.TrimSpace(string(data)), "%d", &v); err != nil || v < 1 {
		return 0, fmt.Errorf("registry: corrupt pin file %q", strings.TrimSpace(string(data)))
	}
	return v, nil
}

// GC deletes all but the newest keep versions. The pinned version and the
// newest version are always retained, whatever keep says, as are the
// versions named by a live promotion record — in particular Previous, the
// rollback target, which must stay collectible-proof for as long as the
// guardrail might re-pin it. Crash leftovers are swept too: staging
// directories of crashed publishes and temp files of crashed durable
// writes. Returns the versions removed.
func (r *Registry) GC(keep int) ([]int, error) {
	if keep < 1 {
		keep = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	vs, err := r.Versions()
	if err != nil {
		return nil, err
	}
	pinned, err := r.Pinned()
	if err != nil {
		return nil, err
	}
	protected := map[int]bool{pinned: true}
	if promo, err := r.Promotion(); err == nil {
		protected[promo.Version] = true
		protected[promo.Previous] = true
	} else if !errors.Is(err, ErrNoPromotion) {
		return nil, err
	}
	var removed []int
	for i, v := range vs {
		if len(vs)-i <= keep || protected[v] {
			continue
		}
		if err := os.RemoveAll(filepath.Join(r.root, versionDir(v))); err != nil {
			return removed, fmt.Errorf("registry: removing v%d: %w", v, err)
		}
		removed = append(removed, v)
	}
	// Sweep crash leftovers.
	entries, err := os.ReadDir(r.root)
	if err != nil {
		return removed, fmt.Errorf("registry: %w", err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			_ = os.RemoveAll(filepath.Join(r.root, e.Name()))
		}
	}
	return removed, durable.SyncDir(r.root)
}

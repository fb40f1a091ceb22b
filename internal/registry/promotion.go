package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"tasq/internal/durable"
)

// promotionFile is the root-level marker the autopilot writes when it
// promotes a candidate. Like PINNED it is registry-global state, not
// version state: at most one promotion is "live" (inside its guardrail
// watch window or already resolved) at a time.
const promotionFile = "PROMOTION"

// ErrNoPromotion is returned by Promotion when no record exists.
var ErrNoPromotion = errors.New("registry: no promotion record")

// PromotionRecord documents an autopilot promotion: which version was
// auto-pinned, which version it displaced (the rollback target), and —
// once the guardrail has spoken — whether the promotion was rolled back.
// While a record exists, GC protects both Version and Previous exactly
// like the pinned version, so the rollback target can never be collected
// out from under the guardrail.
type PromotionRecord struct {
	// Version is the promoted (auto-pinned) generation.
	Version int `json:"version"`
	// Previous is the generation that was active before promotion — the
	// guaranteed-live rollback target.
	Previous int `json:"previous"`
	// PromotedAtN is the autopilot's observation count at promotion time
	// (a deterministic logical clock, not wall time).
	PromotedAtN int64 `json:"promoted_at_n"`
	// CandidateErr and ActiveErr are the shadow-sample mean relative
	// errors that justified the promotion.
	CandidateErr float64 `json:"candidate_err"`
	ActiveErr    float64 `json:"active_err"`
	// RolledBack is set when the post-promotion guardrail fired and
	// serving was re-pinned to Previous. A rolled-back record is kept
	// (until the next promotion overwrites it) as the audit trail of why
	// the older generation is serving.
	RolledBack bool `json:"rolled_back,omitempty"`
	// RolledBackAtN is the observation count at rollback time.
	RolledBackAtN int64 `json:"rolled_back_at_n,omitempty"`
}

// SetPromotion writes (or overwrites) the promotion record crash-safely.
// Both referenced versions must exist.
func (r *Registry) SetPromotion(rec PromotionRecord) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := r.Manifest(rec.Version); err != nil {
		return err
	}
	if rec.Previous != 0 {
		if _, err := r.Manifest(rec.Previous); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(&rec, "", "  ")
	if err != nil {
		return fmt.Errorf("registry: encoding promotion record: %w", err)
	}
	data = append(data, '\n')
	if err := durable.WriteFile(filepath.Join(r.root, promotionFile), data); err != nil {
		return fmt.Errorf("registry: writing promotion record: %w", err)
	}
	return nil
}

// Promotion reads the current promotion record; ErrNoPromotion if none.
func (r *Registry) Promotion() (PromotionRecord, error) {
	data, err := os.ReadFile(filepath.Join(r.root, promotionFile))
	if errors.Is(err, os.ErrNotExist) {
		return PromotionRecord{}, ErrNoPromotion
	}
	if err != nil {
		return PromotionRecord{}, fmt.Errorf("registry: reading promotion record: %w", err)
	}
	var rec PromotionRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return PromotionRecord{}, fmt.Errorf("registry: corrupt promotion record: %w", err)
	}
	if rec.Version < 1 {
		return PromotionRecord{}, fmt.Errorf("registry: corrupt promotion record: version %d", rec.Version)
	}
	return rec, nil
}

// ClearPromotion removes the promotion record; no error if none exists.
func (r *Registry) ClearPromotion() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	err := os.Remove(filepath.Join(r.root, promotionFile))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("registry: clearing promotion record: %w", err)
	}
	return durable.SyncDir(r.root)
}

// Annotate merges key/value pairs into a version's manifest annotations
// and replaces the manifest through durable.WriteFile. The payload is
// untouched, so the SHA-256 stays valid. An empty value deletes the key.
func (r *Registry) Annotate(version int, kv map[string]string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, err := r.Manifest(version)
	if err != nil {
		return err
	}
	if m.Annotations == nil {
		m.Annotations = make(map[string]string, len(kv))
	}
	for k, v := range kv {
		if v == "" {
			delete(m.Annotations, k)
			continue
		}
		m.Annotations[k] = v
	}
	if len(m.Annotations) == 0 {
		m.Annotations = nil
	}
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return fmt.Errorf("registry: encoding manifest: %w", err)
	}
	data = append(data, '\n')
	if err := durable.WriteFile(filepath.Join(r.root, versionDir(version), manifestFile), data); err != nil {
		return fmt.Errorf("registry: annotating v%d: %w", version, err)
	}
	return nil
}

package registry

import (
	"errors"
	"testing"
)

func TestPromotionRoundTrip(t *testing.T) {
	r := open(t)
	if _, err := r.Promotion(); !errors.Is(err, ErrNoPromotion) {
		t.Fatalf("empty registry Promotion error %v, want ErrNoPromotion", err)
	}
	v1 := publish(t, r, "gen one")
	v2 := publish(t, r, "gen two")
	rec := PromotionRecord{
		Version: v2, Previous: v1, PromotedAtN: 42,
		CandidateErr: 0.11, ActiveErr: 0.58,
	}
	if err := r.setPromotion(rec); err != nil {
		t.Fatal(err)
	}
	got, err := r.Promotion()
	if err != nil {
		t.Fatal(err)
	}
	if got != rec {
		t.Fatalf("promotion record %+v, want %+v", got, rec)
	}
	// Overwrite with a rollback outcome.
	rec.RolledBack = true
	rec.RolledBackAtN = 77
	if err := r.setPromotion(rec); err != nil {
		t.Fatal(err)
	}
	if got, _ = r.Promotion(); !got.RolledBack || got.RolledBackAtN != 77 {
		t.Fatalf("rolled-back record %+v", got)
	}
	if err := r.ClearPromotion(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Promotion(); !errors.Is(err, ErrNoPromotion) {
		t.Fatalf("after clear, Promotion error %v, want ErrNoPromotion", err)
	}
	// Clearing twice is fine.
	if err := r.ClearPromotion(); err != nil {
		t.Fatal(err)
	}
}

func TestSetPromotionValidatesVersions(t *testing.T) {
	r := open(t)
	v1 := publish(t, r, "gen one")
	if err := r.setPromotion(PromotionRecord{Version: 99, Previous: v1}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing promoted version error %v, want ErrNotFound", err)
	}
	if err := r.setPromotion(PromotionRecord{Version: v1, Previous: 99}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing previous version error %v, want ErrNotFound", err)
	}
	// Previous == 0 means "no prior generation" (first-ever promotion) and
	// needs no validation.
	if err := r.setPromotion(PromotionRecord{Version: v1}); err != nil {
		t.Fatal(err)
	}
}

// TestPromoteAndRollBack: Promote leaves the record and the pin on the
// promoted version; RollBack moves the pin back and marks only a record
// that names the version it rolls back, and needs no record at all.
func TestPromoteAndRollBack(t *testing.T) {
	r := open(t)
	v1 := publish(t, r, "gen one")
	v2 := publish(t, r, "gen two")
	v3 := publish(t, r, "gen three")
	if err := r.Promote(PromotionRecord{Version: v2, Previous: v1, PromotedAtN: 5}); err != nil {
		t.Fatal(err)
	}
	if pinned, _ := r.Pinned(); pinned != v2 {
		t.Fatalf("pinned v%d after Promote, want v%d", pinned, v2)
	}
	// A record naming another version is left alone.
	if pinned, err := r.RollBack(v3, v1, 9); !pinned || err != nil {
		t.Fatalf("RollBack(v3) = %v, %v", pinned, err)
	}
	if rec, _ := r.Promotion(); rec.RolledBack {
		t.Fatalf("record %+v marked by a rollback of another version", rec)
	}
	if pinned, err := r.RollBack(v2, v1, 9); !pinned || err != nil {
		t.Fatalf("RollBack(v2) = %v, %v", pinned, err)
	}
	if rec, _ := r.Promotion(); !rec.RolledBack || rec.RolledBackAtN != 9 || rec.PromotedAtN != 5 {
		t.Fatalf("record %+v after rollback, want rolled back at 9", rec)
	}
	if pinned, _ := r.Pinned(); pinned != v1 {
		t.Fatalf("pinned v%d after RollBack, want v%d", pinned, v1)
	}
	if err := r.ClearPromotion(); err != nil {
		t.Fatal(err)
	}
	if pinned, err := r.RollBack(v2, v1, 10); !pinned || err != nil {
		t.Fatalf("RollBack without a record = %v, %v", pinned, err)
	}
	if _, err := r.Promotion(); !errors.Is(err, ErrNoPromotion) {
		t.Fatalf("RollBack wrote a record: %v", err)
	}
}

// TestGCProtectsRollbackTarget is the satellite fix: the previous-active
// generation named by a promotion record must survive GC exactly like a
// pin, or the guardrail could have nothing to roll back to.
func TestGCProtectsRollbackTarget(t *testing.T) {
	r := open(t)
	v1 := publish(t, r, "gen one") // rollback target
	for i := 0; i < 4; i++ {
		publish(t, r, "filler")
	}
	v6 := publish(t, r, "gen six") // promoted
	if err := r.Pin(v6); err != nil {
		t.Fatal(err)
	}
	if err := r.setPromotion(PromotionRecord{Version: v6, Previous: v1}); err != nil {
		t.Fatal(err)
	}
	removed, err := r.GC(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range removed {
		if v == v1 || v == v6 {
			t.Fatalf("GC removed protected version v%d (removed %v)", v, removed)
		}
	}
	if len(removed) != 4 {
		t.Fatalf("GC removed %v, want the 4 filler versions", removed)
	}
	// Both promotion-referenced versions are still loadable.
	if _, _, err := r.Get(v1); err != nil {
		t.Fatalf("rollback target collected: %v", err)
	}
	if _, _, err := r.Get(v6); err != nil {
		t.Fatalf("promoted version collected: %v", err)
	}
	// Once the record is cleared, the old generation becomes collectible.
	if err := r.ClearPromotion(); err != nil {
		t.Fatal(err)
	}
	removed, err = r.GC(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != v1 {
		t.Fatalf("post-clear GC removed %v, want [%d]", removed, v1)
	}
}

func TestAnnotate(t *testing.T) {
	r := open(t)
	v := publish(t, r, "gen one")
	if err := r.Annotate(v, map[string]string{"autopilot.promoted_at_n": "42", "note": "x"}); err != nil {
		t.Fatal(err)
	}
	m, err := r.Manifest(v)
	if err != nil {
		t.Fatal(err)
	}
	if m.Annotations["autopilot.promoted_at_n"] != "42" || m.Annotations["note"] != "x" {
		t.Fatalf("annotations %+v", m.Annotations)
	}
	// Merge keeps existing keys; empty value deletes.
	if err := r.Annotate(v, map[string]string{"note": "", "extra": "y"}); err != nil {
		t.Fatal(err)
	}
	m, _ = r.Manifest(v)
	if _, ok := m.Annotations["note"]; ok {
		t.Fatal("empty value did not delete key")
	}
	if m.Annotations["autopilot.promoted_at_n"] != "42" || m.Annotations["extra"] != "y" {
		t.Fatalf("merged annotations %+v", m.Annotations)
	}
	// The payload checksum still verifies after the manifest rewrite.
	if _, _, err := r.Get(v); err != nil {
		t.Fatalf("Get after Annotate: %v", err)
	}
	if err := r.Annotate(99, map[string]string{"k": "v"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("annotate missing version error %v, want ErrNotFound", err)
	}
}

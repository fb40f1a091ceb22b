package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"tasq/internal/obs"
	"tasq/internal/registry"
	"tasq/internal/trainer"
)

// Reloader keeps a Server in sync with a model registry: the active model
// follows the pinned version (or the latest, when nothing is pinned), and
// when a version newer than the pin exists it is loaded as the shadow
// candidate. Sync runs from a poll ticker, from SIGHUP, and from
// POST /v1/admin/reload — all serialized, all hot: in-flight requests
// never see a partial swap.
type Reloader struct {
	reg      *registry.Registry
	srv      *Server
	interval time.Duration
	logf     func(format string, args ...any)
	onLoad   func(*trainer.Pipeline)
	failures *obs.Counter
	mu       sync.Mutex
}

// DefaultPollInterval is how often a Reloader checks the registry when no
// explicit interval is configured.
const DefaultPollInterval = 10 * time.Second

// NewReloader wires a server to a registry and registers itself as the
// server's admin-reload hook. interval must be positive. logf (optional)
// receives one line per swap.
func NewReloader(reg *registry.Registry, srv *Server, interval time.Duration, logf func(string, ...any)) (*Reloader, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("serve: reload interval %v must be positive", interval)
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	r := &Reloader{reg: reg, srv: srv, interval: interval, logf: logf}
	srv.reg.SetHelp(obs.MetricReloadFailures, "Registry sync passes that failed (corrupt artifact, unreadable manifest, …); the previous generation keeps serving.")
	r.failures = srv.reg.Counter(obs.MetricReloadFailures)
	srv.setReloadFunc(r.Sync)
	return r, nil
}

// OnLoad registers a hook applied to every pipeline the reloader loads —
// active and shadow — before it is installed; the daemon uses it to apply
// the -policy override to each hot-swapped generation. Call before the
// first Sync.
func (r *Reloader) OnLoad(fn func(*trainer.Pipeline)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onLoad = fn
}

// Sync performs one reconciliation pass. It is safe to call concurrently
// with itself and with live traffic. A failing pass — corrupt artifact,
// damaged manifest, torn registry — increments tasq_reload_failure_total
// and leaves the serving generation untouched: a bad publish can page an
// operator, never break scoring.
func (r *Reloader) Sync() error {
	if err := r.sync(); err != nil {
		r.failures.Inc()
		return err
	}
	return nil
}

func (r *Reloader) sync() error {
	r.mu.Lock()
	defer r.mu.Unlock()

	latest, err := r.reg.Latest()
	if err != nil {
		if errors.Is(err, registry.ErrEmpty) && r.srv.active.Load() != nil {
			// Registry drained (e.g. aggressive GC elsewhere) — keep
			// serving what we have.
			return nil
		}
		return err
	}
	pinned, err := r.reg.Pinned()
	if err != nil {
		return err
	}

	activeTarget := latest
	if pinned > 0 {
		activeTarget = pinned
	}
	shadowTarget := 0
	if latest > activeTarget {
		shadowTarget = latest
	}

	if activeTarget != r.srv.ActiveVersion() || r.srv.active.Load() == nil {
		p, m, err := r.reg.GetPipeline(activeTarget)
		if err != nil {
			return fmt.Errorf("serve: loading active v%d: %w", activeTarget, err)
		}
		if r.onLoad != nil {
			r.onLoad(p)
		}
		if err := r.srv.SetActive(p, activeTarget); err != nil {
			return err
		}
		r.logf("serve: active model -> v%d (published %s)", activeTarget, m.CreatedAt.Format(time.RFC3339))
	}

	switch {
	case shadowTarget == 0 && r.srv.ShadowVersion() != 0:
		r.srv.ClearShadow()
		r.logf("serve: shadow candidate cleared")
	case shadowTarget != 0 && shadowTarget != r.srv.ShadowVersion():
		p, _, err := r.reg.GetPipeline(shadowTarget)
		if err != nil {
			return fmt.Errorf("serve: loading shadow v%d: %w", shadowTarget, err)
		}
		if r.onLoad != nil {
			r.onLoad(p)
		}
		if err := r.srv.SetShadow(p, shadowTarget); err != nil {
			return err
		}
		r.logf("serve: shadow candidate -> v%d (active v%d)", shadowTarget, activeTarget)
	}
	return nil
}

// Run polls the registry until ctx is canceled. Sync errors are logged
// and retried on the next tick — a bad publish must not take down the
// server.
func (r *Reloader) Run(ctx context.Context) {
	t := time.NewTicker(r.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := r.Sync(); err != nil {
				r.logf("serve: reload: %v", err)
			}
		}
	}
}

// ReloadResponse reports the model generations after an admin reload.
type ReloadResponse struct {
	ActiveVersion int `json:"active_version"`
	ShadowVersion int `json:"shadow_version,omitempty"`
}

// handleAdminReload forces an immediate registry sync. 501 when the
// server is not registry-backed.
func (s *Server) handleAdminReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	fn := s.reloadFn.Load()
	if fn == nil {
		http.Error(w, "hot reload not configured: serve from a model registry (-registry)", http.StatusNotImplemented)
		return
	}
	if err := (*fn)(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, ReloadResponse{
		ActiveVersion: s.ActiveVersion(),
		ShadowVersion: s.ShadowVersion(),
	})
}

// Reload asks the service to sync against its model registry now and
// returns the resulting generations.
func (c *Client) Reload(ctx context.Context) (*ReloadResponse, error) {
	// A registry sync is idempotent: re-running it converges on the same
	// generation.
	return postJSON[ReloadResponse](ctx, c, "/v1/admin/reload", retryIdempotent, struct{}{})
}

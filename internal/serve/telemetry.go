package serve

import (
	"context"
	"errors"
	"net/http"

	"tasq/internal/jobrepo"
	"tasq/internal/obs"
)

// ErrTelemetryBackpressure is returned by a TelemetrySink whose ingest
// queue is full. The telemetry endpoint maps it to 429 + Retry-After, the
// same contract the admission gate applies to scoring, so producers slow
// down instead of piling up unbounded feedback data.
var ErrTelemetryBackpressure = errors.New("serve: telemetry ingest backpressure")

// TelemetrySink consumes observed-run telemetry accepted by POST
// /v1/telemetry — in production, the autopilot's ingest queue. It returns
// how many records it accepted; a short count with
// ErrTelemetryBackpressure means the queue filled mid-batch. Re-submitting
// an accepted record is harmless: the retraining window deduplicates by
// job ID.
type TelemetrySink interface {
	IngestTelemetry(recs []*jobrepo.Record) (accepted int, err error)
}

// WithTelemetry wires a telemetry sink into POST /v1/telemetry. Without
// one the endpoint answers 501.
func WithTelemetry(sink TelemetrySink) Option {
	return func(s *Server) { s.telemetry = sink }
}

// TelemetryRequest carries a batch of observed production runs — the
// feedback half of the paper's Figure-4 loop. Each record is the same
// shape the job repository stores: the job's compile-time features, the
// tokens it actually ran with, the observed run time, and its skyline.
type TelemetryRequest struct {
	Records []*jobrepo.Record `json:"records"`
}

// TelemetryResponse reports the batch outcome. Rejected counts records
// that failed validation (they are dropped, not retried); Error carries
// the first validation failure for diagnosis.
type TelemetryResponse struct {
	Accepted int    `json:"accepted"`
	Rejected int    `json:"rejected"`
	Error    string `json:"error,omitempty"`
}

func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if s.telemetry == nil {
		http.Error(w, "serve: no telemetry sink configured", http.StatusNotImplemented)
		return
	}
	var req TelemetryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Records) == 0 {
		http.Error(w, "serve: telemetry batch without records", http.StatusBadRequest)
		return
	}
	if len(req.Records) > s.maxBatch {
		http.Error(w, "serve: telemetry batch too large", http.StatusBadRequest)
		return
	}
	out := TelemetryResponse{}
	valid := make([]*jobrepo.Record, 0, len(req.Records))
	for _, rec := range req.Records {
		if rec == nil {
			out.Rejected++
			if out.Error == "" {
				out.Error = "serve: null telemetry record"
			}
			continue
		}
		if err := rec.Validate(); err != nil {
			out.Rejected++
			if out.Error == "" {
				out.Error = err.Error()
			}
			continue
		}
		valid = append(valid, rec)
	}
	var err error
	if len(valid) > 0 {
		out.Accepted, err = s.telemetry.IngestTelemetry(valid)
	}
	s.telemetryAccepted.Add(int64(out.Accepted))
	s.telemetryRejected.Add(int64(out.Rejected))
	if errors.Is(err, ErrTelemetryBackpressure) {
		s.telemetryShed.Add(int64(len(valid) - out.Accepted))
		w.Header().Set("Retry-After", retryAfterHeader)
		writeJSON(w, http.StatusTooManyRequests, &out)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, &out)
}

// initTelemetryMetrics registers the ingest counters (always, so the
// series exist at zero even before the first batch).
func (s *Server) initTelemetryMetrics() {
	s.reg.SetHelp(obs.MetricTelemetryRecords, "Telemetry records received, by outcome (accepted, rejected, shed).")
	s.telemetryAccepted = s.reg.Counter(obs.MetricTelemetryRecords, "outcome", "accepted")
	s.telemetryRejected = s.reg.Counter(obs.MetricTelemetryRecords, "outcome", "rejected")
	s.telemetryShed = s.reg.Counter(obs.MetricTelemetryRecords, "outcome", "shed")
}

// Telemetry submits a batch of observed-run records to the service's
// learning loop. Like batch scoring it is retried only when the service
// provably refused the batch whole; a partially accepted batch is safe to
// resubmit anyway, because the retraining window deduplicates by job ID.
func (c *Client) Telemetry(ctx context.Context, req *TelemetryRequest) (*TelemetryResponse, error) {
	return postJSON[TelemetryResponse](ctx, c, "/v1/telemetry", retryAtomic, req)
}

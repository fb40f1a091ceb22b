package serve

import (
	"context"
	"fmt"
	"net/http"

	"tasq/internal/parallel"
)

// BatchScoreRequest scores several jobs in one call. Items are scored
// concurrently over the server's bounded worker pool; a failing item never
// affects its siblings.
type BatchScoreRequest struct {
	Items []ScoreRequest `json:"items"`
}

// BatchItemResult is the outcome for one batch item. Exactly one of
// Response and Error is set; Status carries the HTTP-equivalent code for
// the item (200, 400, 409 or 500) so clients can apply the same error
// contract as the single-score endpoint. Items route independently: each
// may name its own model.
type BatchItemResult struct {
	Index    int            `json:"index"`
	Status   int            `json:"status"`
	Response *ScoreResponse `json:"response,omitempty"`
	Error    string         `json:"error,omitempty"`
}

// BatchScoreResponse reports per-item outcomes in input order.
type BatchScoreResponse struct {
	Results   []BatchItemResult `json:"results"`
	Succeeded int               `json:"succeeded"`
	Failed    int               `json:"failed"`
}

func (s *Server) handleScoreBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req BatchScoreRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Items) == 0 {
		http.Error(w, "serve: batch without items", http.StatusBadRequest)
		return
	}
	if len(req.Items) > s.maxBatch {
		http.Error(w, "serve: batch too large", http.StatusBadRequest)
		return
	}
	out := s.scoreBatch(&req)
	writeJSON(w, http.StatusOK, out)
	for i := range out.Results {
		putScoreResponse(out.Results[i].Response)
	}
}

// scoreBatch scores the items over at most s.workers goroutines and
// assembles results in input order. The envelope always succeeds; errors
// are isolated per item.
func (s *Server) scoreBatch(req *BatchScoreRequest) *BatchScoreResponse {
	out := &BatchScoreResponse{Results: make([]BatchItemResult, len(req.Items))}
	// No item fails the fan-out and nothing cancels it: every item runs
	// and records its own outcome.
	_ = parallel.ForEach(context.Background(), len(req.Items), s.workers, func(i int) error {
		out.Results[i] = s.scoreItem(i, &req.Items[i])
		return nil
	})
	for _, res := range out.Results {
		if res.Status == http.StatusOK {
			out.Succeeded++
		} else {
			out.Failed++
		}
	}
	return out
}

// scoreItem runs one batch item: a per-item injected fault fails this
// item alone (its siblings keep scoring), otherwise the shared scoring
// path runs. A panic fails the item with a 500 too: items run on pool
// goroutines, outside net/http's per-request recovery, where a panic
// would take the whole process down.
func (s *Server) scoreItem(i int, req *ScoreRequest) (res BatchItemResult) {
	res.Index = i
	defer func() {
		if p := recover(); p != nil {
			s.scoreFailed.Inc()
			res = BatchItemResult{Index: i, Status: http.StatusInternalServerError, Error: fmt.Sprintf("serve: scoring panicked: %v", p)}
		}
	}()
	err := s.inj.BatchItemError()
	if err != nil {
		s.scoreFailed.Inc()
		err = fmt.Errorf("serve: scoring: %w", err)
	} else {
		res.Response, err = s.score(req)
	}
	if err != nil {
		res.Status, res.Error = httpStatus(err), err.Error()
	} else {
		res.Status = http.StatusOK
	}
	return res
}

// ScoreBatch submits several jobs in one request. The returned response
// carries per-item results; an item-level failure is reported in its
// BatchItemResult, not as a Go error.
func (c *Client) ScoreBatch(ctx context.Context, req *BatchScoreRequest) (*BatchScoreResponse, error) {
	// A batch is retried only when the service provably refused it whole
	// (admission shed); a transport error or 500 may hide a partially
	// executed batch, which must not be blindly resubmitted.
	return postJSON[BatchScoreResponse](ctx, c, "/v1/score/batch", retryAtomic, req)
}

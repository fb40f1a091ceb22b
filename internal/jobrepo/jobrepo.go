// Package jobrepo is the historical job repository of the TASQ pipeline
// (Figure 4): it stores each job's compile-time graph and metadata together
// with the telemetry of its production run — requested tokens, run time and
// resource skyline — and supports the constrained queries the flighting
// job-selection procedure needs (virtual cluster, token range, time frame).
// Records persist as JSON Lines, this reproduction's stand-in for Azure
// Data Lake Storage.
package jobrepo

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"tasq/internal/parallel"
	"tasq/internal/scopesim"
	"tasq/internal/skyline"
)

// Record pairs a job with the telemetry of its observed production run.
type Record struct {
	Job *scopesim.Job `json:"job"`
	// ObservedTokens is the allocation the job actually ran with.
	ObservedTokens int `json:"observed_tokens"`
	// RuntimeSeconds is the observed run time.
	RuntimeSeconds int `json:"runtime_seconds"`
	// Skyline is the observed per-second token usage.
	Skyline skyline.Skyline `json:"skyline"`
}

// Validate checks the record's internal consistency.
func (r *Record) Validate() error {
	if r.Job == nil {
		return errors.New("jobrepo: record without job")
	}
	if err := r.Job.Validate(); err != nil {
		return err
	}
	if r.ObservedTokens < 1 {
		return fmt.Errorf("jobrepo: job %s observed tokens %d", r.Job.ID, r.ObservedTokens)
	}
	if r.RuntimeSeconds != r.Skyline.Runtime() {
		return fmt.Errorf("jobrepo: job %s runtime %d != skyline length %d",
			r.Job.ID, r.RuntimeSeconds, r.Skyline.Runtime())
	}
	return r.Skyline.Validate()
}

// Repository is an in-memory store of records with ID lookup.
type Repository struct {
	records []*Record
	byID    map[string]*Record
}

// New returns an empty repository.
func New() *Repository {
	return &Repository{byID: make(map[string]*Record)}
}

// Add validates and stores a record; duplicate job IDs are rejected.
func (r *Repository) Add(rec *Record) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	if _, dup := r.byID[rec.Job.ID]; dup {
		return fmt.Errorf("jobrepo: duplicate job ID %s", rec.Job.ID)
	}
	r.records = append(r.records, rec)
	r.byID[rec.Job.ID] = rec
	return nil
}

// Len returns the record count.
func (r *Repository) Len() int { return len(r.records) }

// All returns the records in insertion order. The returned slice is the
// caller's to reorder or filter — it never aliases the repository's
// backing array. (Query already returns a fresh slice.)
func (r *Repository) All() []*Record {
	out := make([]*Record, len(r.records))
	copy(out, r.records)
	return out
}

// Jobs returns the job of each record, in order.
func Jobs(recs []*Record) []*scopesim.Job {
	out := make([]*scopesim.Job, len(recs))
	for i, rec := range recs {
		out[i] = rec.Job
	}
	return out
}

// Get returns the record for a job ID, or nil.
func (r *Repository) Get(id string) *Record { return r.byID[id] }

// Filter restricts a Query; zero fields are ignored.
type Filter struct {
	VirtualCluster string
	MinTokens      int       // observed tokens ≥
	MaxTokens      int       // observed tokens ≤ (0 = unbounded)
	From, To       time.Time // submit time in [From, To)
	RecurringOnly  bool      // only jobs with a template
}

// Query returns the records matching the filter, in insertion order.
func (r *Repository) Query(f Filter) []*Record {
	var out []*Record
	for _, rec := range r.records {
		j := rec.Job
		if f.VirtualCluster != "" && j.VirtualCluster != f.VirtualCluster {
			continue
		}
		if f.MinTokens > 0 && rec.ObservedTokens < f.MinTokens {
			continue
		}
		if f.MaxTokens > 0 && rec.ObservedTokens > f.MaxTokens {
			continue
		}
		if !f.From.IsZero() && j.SubmitTime.Before(f.From) {
			continue
		}
		if !f.To.IsZero() && !j.SubmitTime.Before(f.To) {
			continue
		}
		if f.RecurringOnly && j.Template == "" {
			continue
		}
		out = append(out, rec)
	}
	return out
}

// Ingest executes each job at its requested token count on the executor
// and stores the resulting telemetry — the transformation step of the TASQ
// training pipeline that turns raw jobs into model-ready records.
func (r *Repository) Ingest(jobs []*scopesim.Job, ex *scopesim.Executor) error {
	return r.IngestParallel(jobs, ex, 1)
}

// IngestParallel is Ingest with the executions fanned out over workers
// goroutines (the Executor is stateless, so concurrent Run calls are safe).
// Records are stored in job order and the result is identical to Ingest at
// any worker count; workers ≤ 0 means runtime.NumCPU, 1 the serial path.
func (r *Repository) IngestParallel(jobs []*scopesim.Job, ex *scopesim.Executor, workers int) error {
	recs, err := parallel.Map(context.Background(), len(jobs), workers, func(i int) (*Record, error) {
		j := jobs[i]
		res, err := ex.Run(j, j.RequestedTokens)
		if err != nil {
			return nil, fmt.Errorf("jobrepo: ingesting %s: %w", j.ID, err)
		}
		return &Record{
			Job:            j,
			ObservedTokens: j.RequestedTokens,
			RuntimeSeconds: res.RuntimeSeconds,
			Skyline:        res.Skyline,
		}, nil
	})
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if err := r.Add(rec); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSONL streams the repository as JSON Lines.
func (r *Repository) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rec := range r.records {
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("jobrepo: encoding %s: %w", rec.Job.ID, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL loads a repository from JSON Lines, validating every record.
func ReadJSONL(rd io.Reader) (*Repository, error) {
	repo := New()
	dec := json.NewDecoder(bufio.NewReader(rd))
	for line := 1; ; line++ {
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				return repo, nil
			}
			return nil, fmt.Errorf("jobrepo: record %d: %w", line, err)
		}
		if err := repo.Add(&rec); err != nil {
			return nil, fmt.Errorf("jobrepo: record %d: %w", line, err)
		}
	}
}

// SaveFile writes the repository to path, creating or truncating it.
func (r *Repository) SaveFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return r.WriteJSONL(f)
}

// LoadFile reads a repository from path.
func LoadFile(path string) (*Repository, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJSONL(f)
}

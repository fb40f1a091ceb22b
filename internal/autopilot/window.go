package autopilot

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"tasq/internal/durable"
	"tasq/internal/jobrepo"
)

// DefaultWindowCap bounds the telemetry window when the caller does not:
// enough recent runs to retrain the PCC models, small enough that
// training stays interactive.
const DefaultWindowCap = 4096

// Window is the autopilot's bounded, crash-safe, append-only telemetry
// store: a JSON-Lines file of jobrepo.Records, fsynced per append. On
// open, a torn final line (a crash mid-append) is tolerated and truncated
// away; earlier damaged lines are skipped in memory and rewritten out at
// the next compaction. The in-memory view keeps only the newest capacity
// records; the file is compacted (replaced with the in-memory view through
// durable.Write) once it grows past twice the capacity, so disk use is
// bounded too. Safe for concurrent use.
type Window struct {
	mu    sync.Mutex
	path  string
	cap   int
	recs  []*jobrepo.Record
	f     *os.File
	lines int // lines currently in the file, compaction trigger
}

// OpenWindow opens (creating if needed) a window at path holding at most
// capacity (≥ 1) records.
func OpenWindow(path string, capacity int) (*Window, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("autopilot: window capacity %d must be positive", capacity)
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("autopilot: window dir: %w", err)
		}
	}
	// The window has one writer, so a compaction temp file beside it is a
	// crash's leftover: registry GC sweeps only the registry root.
	if err := durable.RemoveTemps(path); err != nil {
		return nil, fmt.Errorf("autopilot: window: %w", err)
	}
	w := &Window{path: path, cap: capacity}
	if err := w.load(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("autopilot: window: %w", err)
	}
	// A created file's name must survive a crash like the appends to it.
	if err := durable.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, fmt.Errorf("autopilot: window: %w", err)
	}
	w.f = f
	return w, nil
}

// load reads the existing window file, tolerating a torn tail: the file
// is truncated back to the end of the last complete line so the next
// append starts clean.
func (w *Window) load() error {
	data, err := os.ReadFile(w.path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("autopilot: window: %w", err)
	}
	goodEnd := 0 // byte offset past the last complete, parseable line
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn tail: no newline, crash mid-append
		}
		line := data[off : off+nl]
		off += nl + 1
		var rec jobrepo.Record
		if jerr := json.Unmarshal(line, &rec); jerr != nil || rec.Validate() != nil {
			// A complete but damaged line: skip the record, keep the file
			// offset (compaction rewrites the file from the good records).
			goodEnd = off
			continue
		}
		w.recs = append(w.recs, &rec)
		goodEnd = off
	}
	if goodEnd < len(data) {
		if err := os.Truncate(w.path, int64(goodEnd)); err != nil {
			return fmt.Errorf("autopilot: window: truncating torn tail: %w", err)
		}
	}
	w.lines = len(w.recs)
	if n := len(w.recs); n > w.cap {
		w.recs = append([]*jobrepo.Record(nil), w.recs[n-w.cap:]...)
	}
	return nil
}

// Append validates and durably appends one record, evicting the oldest
// in-memory record past capacity and compacting the file past 2×capacity.
func (w *Window) Append(rec *jobrepo.Record) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("autopilot: window: encoding %s: %w", rec.Job.ID, err)
	}
	line = append(line, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("autopilot: window closed")
	}
	if _, err := w.f.Write(line); err != nil {
		return fmt.Errorf("autopilot: window: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("autopilot: window: %w", err)
	}
	w.lines++
	w.recs = append(w.recs, rec)
	if len(w.recs) > w.cap {
		w.recs = w.recs[1:]
	}
	if w.lines > 2*w.cap {
		return w.compactLocked()
	}
	return nil
}

// compactLocked replaces the file with exactly the in-memory records
// through durable.Write, and reopens the append handle.
func (w *Window) compactLocked() error {
	err := durable.Write(w.path, func(f io.Writer) error {
		enc := json.NewEncoder(f)
		for _, rec := range w.recs {
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("autopilot: window compaction: %w", err)
	}
	w.f.Close()
	nf, err := os.OpenFile(w.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		w.f = nil
		return fmt.Errorf("autopilot: window compaction: reopening: %w", err)
	}
	w.f = nf
	w.lines = len(w.recs)
	return nil
}

// Records returns a copy of the in-memory window, oldest first.
func (w *Window) Records() []*jobrepo.Record {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]*jobrepo.Record, len(w.recs))
	copy(out, w.recs)
	return out
}

// Len returns the number of records in the window.
func (w *Window) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.recs)
}

// Close closes the append handle; further Appends fail.
func (w *Window) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

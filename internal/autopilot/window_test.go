package autopilot

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"tasq/internal/jobrepo"
	"tasq/internal/scopesim"
	"tasq/internal/workload"
)

// makeRecords executes n seeded jobs and returns their telemetry records.
func makeRecords(t testing.TB, seed int64, n int) []*jobrepo.Record {
	t.Helper()
	g := workload.New(workload.TestConfig(seed))
	repo := jobrepo.New()
	var ex scopesim.Executor
	if err := repo.Ingest(g.Workload(n), &ex); err != nil {
		t.Fatal(err)
	}
	return repo.All()
}

func TestWindowAppendAndReload(t *testing.T) {
	recs := makeRecords(t, 11, 5)
	path := filepath.Join(t.TempDir(), "telemetry", "window.jsonl")
	w, err := OpenWindow(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if w.Len() != 5 {
		t.Fatalf("len %d", w.Len())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: everything survives, in order.
	w2, err := OpenWindow(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got := w2.Records()
	if len(got) != 5 {
		t.Fatalf("reloaded %d records", len(got))
	}
	for i := range got {
		if got[i].Job.ID != recs[i].Job.ID {
			t.Fatalf("record %d: %s != %s", i, got[i].Job.ID, recs[i].Job.ID)
		}
	}
}

func TestWindowBoundsMemoryAndCompacts(t *testing.T) {
	recs := makeRecords(t, 13, 9)
	path := filepath.Join(t.TempDir(), "window.jsonl")
	w, err := OpenWindow(path, 3) // compaction at >6 file lines
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if w.Len() != 3 {
		t.Fatalf("len %d, want capped at 3", w.Len())
	}
	got := w.Records()
	for i, rec := range got {
		if want := recs[len(recs)-3+i].Job.ID; rec.Job.ID != want {
			t.Fatalf("record %d: %s, want %s (newest retained)", i, rec.Job.ID, want)
		}
	}
	// The file was compacted: it must hold only the retained records.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, b := range data {
		if b == '\n' {
			lines++
		}
	}
	if lines > 6 {
		t.Fatalf("file holds %d lines after compaction, want <= 6", lines)
	}
	// Appends keep working through the reopened handle.
	if err := w.Append(recs[0]); err != nil {
		t.Fatalf("append after compaction: %v", err)
	}
}

func TestWindowToleratesTornTail(t *testing.T) {
	recs := makeRecords(t, 17, 3)
	path := filepath.Join(t.TempDir(), "window.jsonl")
	w, err := OpenWindow(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	// Simulate a crash mid-append: a partial JSON line with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"job":{"id":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	w2, err := OpenWindow(path, 10)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer w2.Close()
	if w2.Len() != 3 {
		t.Fatalf("len %d after torn tail, want 3", w2.Len())
	}
	// The torn bytes were truncated away, so the next append starts on a
	// clean line and survives another reload.
	extra := makeRecords(t, 19, 1)
	if err := w2.Append(extra[0]); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	w3, err := OpenWindow(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if w3.Len() != 4 {
		t.Fatalf("len %d after torn-tail recovery append, want 4", w3.Len())
	}
}

// A crash mid-compaction leaves durable.Write's temp file beside the
// window, where registry GC never looks; the window's owner removes it
// on open and leaves other files alone.
func TestWindowRemovesCompactionLeftovers(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "telemetry")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, ".tmp-window.jsonl-123")
	other := filepath.Join(dir, ".tmp-other.jsonl-123")
	for _, p := range []string{stale, other} {
		if err := os.WriteFile(p, []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w, err := OpenWindow(filepath.Join(dir, "window.jsonl"), 10)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("compaction leftover survived open: %v", err)
	}
	if _, err := os.Stat(other); err != nil {
		t.Fatalf("another file's temp was removed: %v", err)
	}
}

func TestWindowSkipsDamagedMiddleLine(t *testing.T) {
	recs := makeRecords(t, 23, 2)
	path := filepath.Join(t.TempDir(), "window.jsonl")
	w, err := OpenWindow(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	w.Close()
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString("not json at all\n")
	f.Close()
	w2, err := OpenWindow(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(recs[1]); err != nil {
		t.Fatal(err)
	}
	if w2.Len() != 2 {
		t.Fatalf("len %d, want 2 (damaged line skipped)", w2.Len())
	}
	w2.Close()
}

func TestWindowRejectsInvalidRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "window.jsonl")
	w, err := OpenWindow(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(&jobrepo.Record{}); err == nil {
		t.Fatal("invalid record accepted")
	}
	if w.Len() != 0 {
		t.Fatalf("len %d after rejected append", w.Len())
	}
}

// FuzzWindowLoad writes arbitrary bytes as a window file and opens it:
// the open never panics, every kept record is valid, and the file left
// behind is the input up to its last newline.
func FuzzWindowLoad(f *testing.F) {
	var good []byte
	for _, rec := range makeRecords(f, 29, 2) {
		line, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		good = append(append(good, line...), '\n')
	}
	f.Add(good)
	f.Add(good[:len(good)-5])
	// Lines whose integers overflow the held job's 32-bit fields.
	f.Add(bytes.Replace(good, []byte(`"skyline":[`), []byte(`"skyline":[2147483648,`), 1))
	f.Add(regexp.MustCompile(`"Tasks":\d+`).ReplaceAll(good, []byte(`"Tasks":2147483648`)))
	f.Add(regexp.MustCompile(`"Kind":\d+`).ReplaceAll(good, []byte(`"Kind":32768`)))
	f.Add([]byte("not json\n{}\nnull\n{\"Job\":{}}"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "window.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := OpenWindow(path, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		for _, rec := range w.Records() {
			if err := rec.Validate(); err != nil {
				t.Fatalf("kept an invalid record: %v", err)
			}
		}
		left, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := data[:bytes.LastIndexByte(data, '\n')+1]; !bytes.Equal(left, want) {
			t.Fatalf("file left %d bytes, want the %d up to the last newline", len(left), len(want))
		}
	})
}

// TestWindowLoadsTrueMetrics opens a copy of testdata/legacy_window.jsonl,
// appended by a Window when every operator still carried a "True" block
// of execution-time metrics beside its estimates. It must load, to the
// records it was written from: jobs 17, 26 and 21 of TestConfig(1)'s
// stream, executed at their requested tokens.
func TestWindowLoadsTrueMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy_window.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"True":{`)) {
		t.Fatal("legacy_window.jsonl holds no True block: not a legacy file")
	}
	path := filepath.Join(t.TempDir(), "window.jsonl")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWindow(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	all := makeRecords(t, 1, 27)
	want := []*jobrepo.Record{all[17], all[26], all[21]}
	got := w.Records()
	if len(got) != len(want) {
		t.Fatalf("window holds %d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, err := json.Marshal(got[i])
		if err != nil {
			t.Fatal(err)
		}
		e, err := json.Marshal(want[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, e) {
			t.Fatalf("record %d loads as\n%s\nwant\n%s", i, g, e)
		}
	}
}

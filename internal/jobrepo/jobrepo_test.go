package jobrepo

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tasq/internal/scopesim"
	"tasq/internal/skyline"
	"tasq/internal/workload"
)

func ingested(t *testing.T, n int, seed int64) *Repository {
	t.Helper()
	g := workload.New(workload.TestConfig(seed))
	repo := New()
	var ex scopesim.Executor
	if err := repo.Ingest(g.Workload(n), &ex); err != nil {
		t.Fatal(err)
	}
	return repo
}

func TestIngestAndLookup(t *testing.T) {
	repo := ingested(t, 25, 1)
	if repo.Len() != 25 {
		t.Fatalf("len = %d, want 25", repo.Len())
	}
	first := repo.All()[0]
	if got := repo.Get(first.Job.ID); got != first {
		t.Fatal("Get by ID failed")
	}
	if repo.Get("nope") != nil {
		t.Fatal("unknown ID must return nil")
	}
	for _, rec := range repo.All() {
		if rec.RuntimeSeconds != rec.Skyline.Runtime() {
			t.Fatal("runtime/skyline mismatch")
		}
		if rec.Skyline.Peak() > rec.ObservedTokens {
			t.Fatalf("job %s used %d tokens with %d allocated", rec.Job.ID, rec.Skyline.Peak(), rec.ObservedTokens)
		}
	}
}

// TestAllReturnsCopy pins the aliasing contract: reordering or nilling
// the slice returned by All (or Query) must not corrupt the repository's
// insertion order — model training sorts and shuffles these slices
// freely.
func TestAllReturnsCopy(t *testing.T) {
	repo := ingested(t, 10, 3)
	order := make([]string, repo.Len())
	for i, rec := range repo.All() {
		order[i] = rec.Job.ID
	}

	stolen := repo.All()
	for i, j := 0, len(stolen)-1; i < j; i, j = i+1, j-1 {
		stolen[i], stolen[j] = stolen[j], stolen[i]
	}
	stolen[0] = nil

	for i, rec := range repo.All() {
		if rec == nil || rec.Job.ID != order[i] {
			t.Fatalf("record %d changed after caller mutated All() result", i)
		}
	}

	q := repo.Query(Filter{})
	if len(q) != repo.Len() {
		t.Fatalf("empty filter returned %d of %d", len(q), repo.Len())
	}
	q[0] = nil
	if repo.All()[0] == nil || repo.All()[0].Job.ID != order[0] {
		t.Fatal("mutating a Query result corrupted the repository")
	}
}

func TestAddValidation(t *testing.T) {
	repo := New()
	if err := repo.Add(&Record{}); err == nil {
		t.Fatal("record without job accepted")
	}
	g := workload.New(workload.TestConfig(2))
	j := g.Job()
	var ex scopesim.Executor
	res, err := ex.Run(j, j.RequestedTokens)
	if err != nil {
		t.Fatal(err)
	}
	rec := &Record{Job: j, ObservedTokens: j.RequestedTokens, RuntimeSeconds: res.RuntimeSeconds, Skyline: res.Skyline}
	if err := repo.Add(rec); err != nil {
		t.Fatal(err)
	}
	if err := repo.Add(rec); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate accepted: %v", err)
	}
	bad := &Record{Job: j, ObservedTokens: 0, RuntimeSeconds: res.RuntimeSeconds, Skyline: res.Skyline}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero tokens accepted")
	}
	mismatch := &Record{Job: j, ObservedTokens: 5, RuntimeSeconds: 99999, Skyline: res.Skyline}
	if err := mismatch.Validate(); err == nil {
		t.Fatal("runtime mismatch accepted")
	}
	negative := &Record{Job: j, ObservedTokens: 5, RuntimeSeconds: 1, Skyline: skyline.Skyline{-1}}
	if err := negative.Validate(); err == nil {
		t.Fatal("negative skyline accepted")
	}
}

func TestQueryFilters(t *testing.T) {
	repo := ingested(t, 80, 3)
	all := repo.All()

	// Virtual cluster.
	vc := all[0].Job.VirtualCluster
	for _, rec := range repo.Query(Filter{VirtualCluster: vc}) {
		if rec.Job.VirtualCluster != vc {
			t.Fatal("VC filter leaked")
		}
	}

	// Token range.
	got := repo.Query(Filter{MinTokens: 100, MaxTokens: 300})
	for _, rec := range got {
		if rec.ObservedTokens < 100 || rec.ObservedTokens > 300 {
			t.Fatalf("token filter leaked: %d", rec.ObservedTokens)
		}
	}

	// Time frame.
	mid := all[40].Job.SubmitTime
	before := repo.Query(Filter{To: mid})
	after := repo.Query(Filter{From: mid})
	if len(before)+len(after) != len(all) {
		t.Fatalf("time partition %d + %d != %d", len(before), len(after), len(all))
	}
	for _, rec := range before {
		if !rec.Job.SubmitTime.Before(mid) {
			t.Fatal("To filter leaked")
		}
	}

	// Recurring only.
	for _, rec := range repo.Query(Filter{RecurringOnly: true}) {
		if rec.Job.Template == "" {
			t.Fatal("recurring filter leaked ad-hoc job")
		}
	}

	// Combined filter is an intersection.
	combined := repo.Query(Filter{VirtualCluster: vc, RecurringOnly: true, From: time.Time{}})
	for _, rec := range combined {
		if rec.Job.VirtualCluster != vc || rec.Job.Template == "" {
			t.Fatal("combined filter leaked")
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	repo := ingested(t, 15, 4)
	var buf bytes.Buffer
	if err := repo.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != repo.Len() {
		t.Fatalf("loaded %d records, want %d", loaded.Len(), repo.Len())
	}
	for i, want := range repo.All() {
		got := loaded.All()[i]
		if got.Job.ID != want.Job.ID ||
			got.ObservedTokens != want.ObservedTokens ||
			got.RuntimeSeconds != want.RuntimeSeconds ||
			got.Skyline.Area() != want.Skyline.Area() ||
			got.Job.NumOperators() != want.Job.NumOperators() {
			t.Fatalf("record %d mismatch after round trip", i)
		}
		if !got.Job.SubmitTime.Equal(want.Job.SubmitTime) {
			t.Fatalf("record %d submit time mismatch", i)
		}
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"job":null}` + "\n")); err == nil {
		t.Fatal("invalid record accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	repo := ingested(t, 10, 5)
	path := filepath.Join(t.TempDir(), "repo.jsonl")
	if err := repo.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 10 {
		t.Fatalf("loaded %d", loaded.Len())
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.jsonl")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestIngestPropagatesExecutorError(t *testing.T) {
	repo := New()
	bad := &scopesim.Job{ID: "bad", RequestedTokens: 0}
	ex := &scopesim.Executor{}
	if err := repo.Ingest([]*scopesim.Job{bad}, ex); err == nil {
		t.Fatal("executor error swallowed")
	}
}

// TestLoadFileWithTrueMetrics loads testdata/legacy_repo.jsonl, written by
// SaveFile when every operator still carried a "True" block of
// execution-time metrics beside its estimates. It must load, to the
// records it was written from: jobs 17, 26 and 21 of TestConfig(1)'s
// stream, executed at their requested tokens.
func TestLoadFileWithTrueMetrics(t *testing.T) {
	path := filepath.Join("testdata", "legacy_repo.jsonl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"True":{`)) {
		t.Fatalf("%s holds no True block: not a legacy file", path)
	}
	repo, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	all := ingested(t, 27, 1).All()
	want := []*Record{all[17], all[26], all[21]}
	got := repo.All()
	if len(got) != len(want) {
		t.Fatalf("loaded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, err := json.Marshal(got[i])
		if err != nil {
			t.Fatal(err)
		}
		w, err := json.Marshal(want[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("record %d loads as\n%s\nwant\n%s", i, g, w)
		}
	}
}

package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"tasq/internal/jobrepo"
	tasqmodel "tasq/internal/model"
	"tasq/internal/registry"
	"tasq/internal/serve"
	"tasq/internal/trainer"
)

// TestCLIWorkflow drives the full generate → stats → train → evaluate →
// simulate → select → score workflow through run().
func TestCLIWorkflow(t *testing.T) {
	dir := t.TempDir()
	repo := filepath.Join(dir, "repo.jsonl")
	model := filepath.Join(dir, "model.gob")

	steps := [][]string{
		{"generate", "-n", "120", "-seed", "3", "-scale", "0.25", "-out", repo},
		{"stats", "-data", repo},
		{"train", "-data", repo, "-out", model, "-nn-epochs", "10", "-skip-gnn"},
		{"evaluate", "-data", repo, "-model", model},
		{"simulate", "-data", repo},
		{"select", "-data", repo, "-k", "4", "-sample", "20"},
		{"flight", "-data", repo, "-k", "4", "-sample", "15"},
		{"score", "-data", repo, "-model", model},
		{"score", "-data", repo, "-model", model, "-predictor", "xgboost-ss"},
		{"score", "-data", repo, "-model", model, "-policy", "XGBoost-PL,NN"},
		{"plan", "-data", repo, "-model", model, "-capacity", "400", "-n", "50"},
		{"plan", "-data", repo, "-model", model, "-capacity", "400", "-alloc", "peak"},
		{"plan", "-data", repo, "-model", model, "-capacity", "200", "-predictor", "xgboost-ss", "-threshold", "0.05"},
		{"plan", "-data", repo, "-model", model, "-capacity", "400", "-strategy", "backfill"},
		{"plan", "-data", repo, "-model", model, "-capacity", "400", "-strategy", "retry"},
	}
	for _, args := range steps {
		if err := run(args); err != nil {
			t.Fatalf("tasq %v: %v", args, err)
		}
	}
	if _, err := os.Stat(model); err != nil {
		t.Fatalf("model file not written: %v", err)
	}
	// By-name routing fails loudly for unknown and untrained predictors;
	// the §6.3 simulators are not served, so they are unknown.
	for _, name := range []string{"resnet", "Amdahl", "jockey"} {
		if err := run([]string{"score", "-data", repo, "-model", model, "-predictor", name}); !errors.Is(err, tasqmodel.ErrUnknownModel) {
			t.Fatalf("score -predictor %s: %v, want %v", name, err, tasqmodel.ErrUnknownModel)
		}
	}
	if err := run([]string{"score", "-data", repo, "-model", model, "-predictor", "GNN"}); err == nil {
		t.Fatal("untrained GNN accepted by score on a -skip-gnn model")
	}
	// Planning inherits the same routing discipline plus pool validation.
	if err := run([]string{"plan", "-data", repo, "-model", model, "-predictor", "resnet"}); err == nil {
		t.Fatal("unknown predictor accepted by plan")
	}
	if err := run([]string{"plan", "-data", repo, "-model", model, "-capacity", "0"}); err == nil {
		t.Fatal("zero-capacity pool accepted by plan")
	}
	if err := run([]string{"plan", "-data", repo, "-model", model, "-alloc", "lifo"}); err == nil {
		t.Fatal("unknown allocation policy accepted by plan")
	}
	if err := run([]string{"plan", "-data", repo, "-model", model, "-strategy", "lifo"}); err == nil {
		t.Fatal("unknown scheduling strategy accepted by plan")
	}
}

func TestCLIErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing subcommand accepted")
	}
	if err := run([]string{"frobnicate"}); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	if err := run([]string{"stats", "-data", "/nonexistent/repo.jsonl"}); err == nil {
		t.Fatal("missing data file accepted")
	}
	if err := run([]string{"train", "-data", "/nonexistent/repo.jsonl"}); err == nil {
		t.Fatal("missing training data accepted")
	}
	if err := run([]string{"train", "-loss", "LF9"}); err == nil {
		t.Fatal("bad loss accepted")
	}
	// An epoch count below 1 is refused by name before the data is read,
	// where 0 used to mean "keep the default".
	for _, args := range [][]string{{"-nn-epochs", "0"}, {"-gnn-epochs", "0"}, {"-nn-epochs", "-3"}} {
		err := run(append([]string{"train", "-data", "/nonexistent/repo.jsonl"}, args...))
		if err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("train %v: err %v, want a refusal naming %s", args, err, args[0])
		}
	}
	// A typo'd fallback chain is refused by name before the data is read.
	if err := run([]string{"score", "-data", "/nonexistent/repo.jsonl", "-policy", "NN,resnet"}); err == nil || !strings.Contains(err.Error(), "-policy") {
		t.Errorf("score -policy NN,resnet: err %v, want a refusal naming -policy", err)
	}
	if err := run([]string{"help"}); err != nil {
		t.Fatalf("help failed: %v", err)
	}
}

func TestCLIUnknownJob(t *testing.T) {
	dir := t.TempDir()
	repo := filepath.Join(dir, "repo.jsonl")
	model := filepath.Join(dir, "model.gob")
	if err := run([]string{"generate", "-n", "30", "-seed", "1", "-scale", "0.25", "-out", repo}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"train", "-data", repo, "-out", model, "-nn-epochs", "5", "-skip-gnn"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"simulate", "-data", repo, "-job", "nope"}); err == nil {
		t.Fatal("unknown job accepted by simulate")
	}
	if err := run([]string{"score", "-data", repo, "-model", model, "-job", "nope"}); err == nil {
		t.Fatal("unknown job accepted by score")
	}
}

// stdoutOf runs one tasq command line and returns what it printed.
func stdoutOf(t *testing.T, args ...string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = run(args)
	os.Stdout = saved
	if err != nil {
		t.Fatalf("tasq %v: %v", args, err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// helpFlags runs one tasq command line with -h and returns the flags it
// lists.
func helpFlags(t *testing.T, args ...string) map[string]bool {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	err = run(append(args, "-h"))
	os.Stderr = saved
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("tasq %v -h: %v, want the flag list", args, err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(string(out), -1) {
		defined[m[1]] = true
	}
	return defined
}

// TestREADMEExamplesUseDefinedFlags: every flag on a README line that
// runs a tasq subcommand is one that subcommand defines.
func TestREADMEExamplesUseDefinedFlags(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	command := regexp.MustCompile(`^(?:go run \./cmd/)?tasq ([a-z]+(?: (?:list|show|pin|unpin|gc))?)\b(.*)$`)
	flagArg := regexp.MustCompile(`(?:^|\s)--?([A-Za-z][\w-]*)`)
	defined := map[string]map[string]bool{}
	checked := 0
	for _, line := range strings.Split(string(readme), "\n") {
		m := command.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		args, _, _ := strings.Cut(m[2], " #")
		if defined[m[1]] == nil {
			defined[m[1]] = helpFlags(t, strings.Fields(m[1])...)
		}
		for _, f := range flagArg.FindAllStringSubmatch(args, -1) {
			checked++
			if !defined[m[1]][f[1]] {
				t.Errorf("README runs %q: tasq %s defines no -%s", line, m[1], f[1])
			}
		}
	}
	if checked == 0 {
		t.Fatal("no tasq example line with flags found in README.md")
	}
}

// TestCLIPlanLocalMatchesServed: tasq plan has one behaviour. The same
// repository and flags print the same plan whether the batch is planned in
// process from -model or posted to a server of that model (an httptest
// server here, no daemon), under every scheduling strategy, with and
// without -predictor and -n, on a pool small enough that jobs queue.
func TestCLIPlanLocalMatchesServed(t *testing.T) {
	dir := t.TempDir()
	repo := filepath.Join(dir, "repo.jsonl")
	model := filepath.Join(dir, "model.gob")
	if err := run([]string{"generate", "-n", "60", "-seed", "11", "-scale", "0.25", "-out", repo}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"train", "-data", repo, "-out", model, "-nn-epochs", "5", "-skip-gnn"}); err != nil {
		t.Fatal(err)
	}
	p, err := trainer.LoadPipelineFile(model)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(p)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, strategy := range []string{"fcfs", "backfill", "retry"} {
		for _, extra := range [][]string{nil, {"-predictor", "xgboost-ss", "-n", "25", "-alloc", "default", "-threshold", "0.05"}} {
			common := append([]string{"plan", "-data", repo, "-capacity", "150", "-strategy", strategy}, extra...)
			local := stdoutOf(t, append(common, "-model", model)...)
			served := stdoutOf(t, append(common, "-addr", ts.URL)...)
			if local != served {
				t.Errorf("tasq %v: local and served output differ\nlocal:\n%s\nserved:\n%s", common, local, served)
			}
			if !strings.Contains(local, "planned ") || !strings.Contains(local, "token-seconds vs") {
				t.Errorf("tasq %v printed no plan:\n%s", common, local)
			}
		}
	}
	// Both modes refuse the same requests: validation is the server's.
	for _, mode := range [][]string{{"-model", model}, {"-addr", ts.URL}} {
		if err := run(append([]string{"plan", "-data", repo, "-threshold", "-1"}, mode...)); err == nil {
			t.Errorf("tasq plan %v accepted a negative threshold", mode)
		}
	}
}

// TestCLIScoreMatchesServed: tasq score answers what the server would. On
// jobs of a generated repository, under named predictors and the fallback
// policy, the printed model, curve (to the bit) and optimal tokens are
// ScoreLocal's, and "requested" is the job's requested tokens. Every record
// here ran at twice its request, so an answer taken from the observed run
// instead of the job differs.
func TestCLIScoreMatchesServed(t *testing.T) {
	dir := t.TempDir()
	repo := filepath.Join(dir, "repo.jsonl")
	model := filepath.Join(dir, "model.gob")
	if err := run([]string{"generate", "-n", "40", "-seed", "13", "-scale", "0.25", "-out", repo}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"train", "-data", repo, "-out", model, "-nn-epochs", "5", "-skip-gnn"}); err != nil {
		t.Fatal(err)
	}
	p, err := trainer.LoadPipelineFile(model)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(p)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := jobrepo.LoadFile(repo)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs.All() {
		rec.ObservedTokens = 2 * rec.Job.RequestedTokens
	}
	if err := recs.SaveFile(repo); err != nil {
		t.Fatal(err)
	}
	head := regexp.MustCompile(`^job (\S+) scored by (.+): Runtime = .* \(a=(\S+), b=(\S+)\)$`)
	opt := regexp.MustCompile(`^requested (\d+) tokens; optimal (\d+) tokens`)
	for _, name := range []string{"NN", "XGBoost PL", ""} {
		for _, rec := range recs.All()[:8] {
			want, err := srv.ScoreLocal(&serve.ScoreRequest{Job: rec.Job, Model: name})
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(stdoutOf(t, "score", "-data", repo, "-model", model, "-job", rec.Job.ID, "-predictor", name), "\n")
			h, o := head.FindStringSubmatch(lines[0]), opt.FindStringSubmatch(lines[1])
			if h == nil || o == nil {
				t.Fatalf("score %s -predictor %q printed:\n%s", rec.Job.ID, name, strings.Join(lines, "\n"))
			}
			a, errA := strconv.ParseFloat(h[3], 64)
			b, errB := strconv.ParseFloat(h[4], 64)
			if errA != nil || errB != nil {
				t.Fatalf("score %s -predictor %q: unparsable curve in %q", rec.Job.ID, name, lines[0])
			}
			got := fmt.Sprintf("%s %s %x %x %s %s", h[1], h[2], math.Float64bits(a), math.Float64bits(b), o[1], o[2])
			exp := fmt.Sprintf("%s %s %x %x %d %d", rec.Job.ID, want.Model, math.Float64bits(want.Curve.A),
				math.Float64bits(want.Curve.B), rec.Job.RequestedTokens, want.OptimalTokens)
			if got != exp {
				t.Errorf("score -predictor %q: printed %q, served %q", name, got, exp)
			}
			want.Release()
		}
	}
}

// TestCLIRegistryLifecycle drives the model-store lifecycle through
// run(): train-and-publish twice, list, pin, show, gc, unpin.
func TestCLIRegistryLifecycle(t *testing.T) {
	dir := t.TempDir()
	repo := filepath.Join(dir, "repo.jsonl")
	model := filepath.Join(dir, "model.gob")
	store := filepath.Join(dir, "models")

	if err := run([]string{"generate", "-n", "40", "-seed", "5", "-scale", "0.25", "-out", repo}); err != nil {
		t.Fatal(err)
	}
	train := []string{"train", "-data", repo, "-out", model, "-nn-epochs", "5", "-skip-gnn",
		"-registry", store, "-eval-data", repo, "-notes", "first"}
	if err := run(train); err != nil {
		t.Fatalf("train+publish: %v", err)
	}
	if err := run(train); err != nil {
		t.Fatalf("second publish: %v", err)
	}

	reg, err := registry.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := reg.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("published %d versions, want 2", len(ms))
	}
	if ms[0].Train.Jobs != 40 || ms[0].Notes != "first" {
		t.Fatalf("manifest %+v", ms[0])
	}
	if len(ms[0].EvalMetrics) == 0 {
		t.Fatal("eval metrics missing from manifest")
	}

	steps := [][]string{
		{"registry", "list", "-dir", store},
		{"registry", "show", "-dir", store},
		{"registry", "show", "-dir", store, "-version", "1"},
		{"registry", "pin", "-dir", store, "-version", "1"},
		{"registry", "gc", "-dir", store, "-keep", "1"},
		{"registry", "unpin", "-dir", store},
	}
	for _, args := range steps {
		if err := run(args); err != nil {
			t.Fatalf("tasq %v: %v", args, err)
		}
	}
	// gc -keep 1 with v1 pinned keeps both the pinned v1 and newest v2.
	vs, err := reg.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 {
		t.Fatalf("versions after pinned gc: %v", vs)
	}

	if err := run([]string{"registry"}); err == nil {
		t.Fatal("registry without action accepted")
	}
	if err := run([]string{"registry", "frobnicate", "-dir", store}); err == nil {
		t.Fatal("unknown registry action accepted")
	}
	if err := run([]string{"registry", "pin", "-dir", store}); err == nil {
		t.Fatal("pin without -version accepted")
	}
	if err := run([]string{"train", "-data", repo, "-out", model, "-eval-data", repo}); err == nil {
		t.Fatal("-eval-data without -registry accepted")
	}
}

// TestRegistryRefusesBeforeOpening holds an unknown registry action to
// being refused before the registry opens: opening creates the -dir
// directory, which a mistyped action must not leave behind.
func TestRegistryRefusesBeforeOpening(t *testing.T) {
	for _, action := range []string{"-h", "lst"} {
		t.Run(action, func(t *testing.T) {
			dir := t.TempDir()
			t.Chdir(dir)
			err := run([]string{"registry", action})
			if want := fmt.Sprintf("unknown registry action %q", action); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("tasq registry %s: err %v, want %q", action, err, want)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 0 {
				t.Fatalf("tasq registry %s left %d entries behind, first %q", action, len(entries), entries[0].Name())
			}
		})
	}
}

func TestParseLoss(t *testing.T) {
	for _, ok := range []string{"LF1", "lf2", "LF3", ""} {
		if _, err := parseLoss(ok); err != nil {
			t.Fatalf("parseLoss(%q): %v", ok, err)
		}
	}
	if _, err := parseLoss("LF4"); err == nil {
		t.Fatal("LF4 accepted")
	}
}

// Modellifecycle walks the full model-store loop of the paper's Figure 4
// inside one process: train a pipeline and publish it to a versioned
// registry, serve it over HTTP with hot reload, publish an improved
// model, shadow-score live traffic against the candidate, promote it
// without restarting the server, and garbage-collect old versions.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"tasq"
)

func main() {
	// Historical telemetry to train on (the offline half of Figure 4).
	gen := tasq.NewWorkloadGenerator(tasq.SmallWorkloadConfig(47))
	repo := tasq.NewRepository()
	if err := repo.Ingest(gen.Workload(250), tasq.NewExecutor()); err != nil {
		log.Fatal(err)
	}

	// Publish the first trained pipeline to a fresh model registry.
	dir, err := os.MkdirTemp("", "tasq-registry-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	reg, err := tasq.OpenModelRegistry(dir)
	if err != nil {
		log.Fatal(err)
	}
	v1, err := reg.PublishPipeline(train(repo, 47, 40), tasq.ModelManifest{Notes: "baseline"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published v%d (baseline)\n", v1)

	// Serve from the registry: the server starts empty and the reloader
	// installs the current version before the listener opens.
	srv, err := tasq.NewUnloadedScoringServer()
	if err != nil {
		log.Fatal(err)
	}
	reloader, err := tasq.NewModelReloader(reg, srv, time.Hour) // reloads are explicit below
	if err != nil {
		log.Fatal(err)
	}
	if err := reloader.Sync(); err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go reloader.Run(ctx)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := httpSrv.Serve(ln); err != http.ErrServerClosed {
			log.Print(err)
		}
	}()
	defer httpSrv.Close()
	client := tasq.NewScoringClient("http://" + ln.Addr().String())
	fmt.Printf("serving registry %s at %s\n\n", dir, ln.Addr())

	job := gen.Job()
	for job.RequestedTokens < 50 {
		job = gen.Job()
	}
	resp, err := client.Score(ctx, &tasq.ScoreRequest{Job: job})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job %s scored by v%d: optimal %d tokens\n",
		job.ID, resp.ModelVersion, resp.OptimalTokens)

	// A retrain produces a candidate. Pinning v1 keeps it active, so the
	// new version only shadows: live requests are mirrored through it and
	// divergence lands on /metrics — promotion is judged, not assumed.
	if err := reg.Pin(v1); err != nil {
		log.Fatal(err)
	}
	v2, err := reg.PublishPipeline(train(repo, 48, 60), tasq.ModelManifest{Notes: "retrained, more trees"})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := client.Reload(ctx); err != nil { // what a deploy would POST to /v1/admin/reload
		log.Fatal(err)
	}
	fmt.Printf("\npublished v%d; v%d stays active (pinned), v%d shadows\n", v2, v1, v2)
	for i := 0; i < 8; i++ {
		if _, err := client.Score(ctx, &tasq.ScoreRequest{Job: gen.Job()}); err != nil {
			log.Fatal(err)
		}
	}
	metrics, err := client.Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("shadow divergence on /metrics (excerpt):")
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "tasq_shadow_") || strings.HasPrefix(line, "tasq_model_version") {
			fmt.Println("  " + line)
		}
	}

	// Promote: unpin and reload — the candidate becomes active with zero
	// downtime, then old versions are garbage-collected.
	if err := reg.Unpin(); err != nil {
		log.Fatal(err)
	}
	out, err := client.Reload(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npromoted: active v%d, shadow cleared\n", out.ActiveVersion)
	resp, err = client.Score(ctx, &tasq.ScoreRequest{Job: job})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job %s now scored by v%d: optimal %d tokens\n",
		job.ID, resp.ModelVersion, resp.OptimalTokens)

	removed, err := reg.GC(1)
	if err != nil {
		log.Fatal(err)
	}
	vs, err := reg.Versions()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ngc kept newest 1, removed %d: registry now %v\n", len(removed), vs)
}

// train fits a small pipeline; seed and trees vary between "deploys".
func train(repo *tasq.Repository, seed int64, trees int) *tasq.Pipeline {
	cfg := tasq.DefaultTrainConfig(seed)
	cfg.XGB.NumTrees = trees
	cfg.SkipNN = true
	cfg.SkipGNN = true
	p, err := tasq.TrainPipeline(repo.All(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	return p
}

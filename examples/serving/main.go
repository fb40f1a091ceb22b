// Serving demonstrates the Figure 4 system integration end to end inside
// one process: train a pipeline, deploy it as the HTTP scoring service,
// and score an incoming job through the client — the same path a SCOPE
// client submission system would take.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"tasq"
)

func main() {
	// Train the model (the offline half of Figure 4).
	gen := tasq.NewWorkloadGenerator(tasq.SmallWorkloadConfig(31))
	repo := tasq.NewRepository()
	if err := repo.Ingest(gen.Workload(250), tasq.NewExecutor()); err != nil {
		log.Fatal(err)
	}
	cfg := tasq.DefaultTrainConfig(31)
	cfg.SkipGNN = true
	pipe, err := tasq.TrainPipeline(repo.All(), cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Deploy the scoring endpoint (the online half).
	srv, err := tasq.NewScoringServer(pipe)
	if err != nil {
		log.Fatal(err)
	}
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
	baseURL := "http://" + ln.Addr().String()
	fmt.Printf("scoring service deployed at %s\n", baseURL)

	// The client submission system scores an incoming job.
	ctx := context.Background()
	client := tasq.NewScoringClient(baseURL)
	if err := client.Health(ctx); err != nil {
		log.Fatal(err)
	}
	if err := client.Ready(ctx); err != nil {
		log.Fatal(err)
	}
	// Score an incoming job with a realistically sized request.
	job := gen.Job()
	for job.RequestedTokens < 50 {
		job = gen.Job()
	}
	resp, err := client.Score(ctx, &tasq.ScoreRequest{
		Job:             job,
		CandidateTokens: []int{25, 50, 100, job.RequestedTokens},
		Threshold:       0.01,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\njob %s scored by %s\n", job.ID, resp.Model)
	fmt.Printf("PCC: runtime = %.4g * tokens^%.4g\n", resp.Curve.B, resp.Curve.A)
	fmt.Println("\ncandidate allocations:")
	for _, p := range resp.Predictions {
		fmt.Printf("  %4d tokens -> %7.1fs\n", p.Tokens, p.RuntimeSeconds)
	}
	fmt.Printf("\nscheduler receives optimal allocation: %d tokens (user requested %d)\n",
		resp.OptimalTokens, job.RequestedTokens)

	// A burst of submissions goes through the batch endpoint: one round
	// trip, scored concurrently server-side, with per-item isolation — a
	// malformed submission doesn't fail its neighbors.
	batch := &tasq.BatchScoreRequest{Items: []tasq.ScoreRequest{
		{Job: gen.Job()},
		{}, // malformed: no job
		{Job: gen.Job()},
	}}
	bresp, err := client.ScoreBatch(ctx, batch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbatch of %d: %d scored, %d rejected\n",
		len(batch.Items), bresp.Succeeded, bresp.Failed)
	for _, item := range bresp.Results {
		if item.Error != "" {
			fmt.Printf("  item %d -> %d %s\n", item.Index, item.Status, item.Error)
			continue
		}
		fmt.Printf("  item %d -> optimal %d tokens (%s)\n",
			item.Index, item.Response.OptimalTokens, item.Response.Model)
	}

	// Operational telemetry: every request above is already on /metrics.
	metrics, err := client.Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nscraped /metrics (excerpt):")
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "tasq_http_requests_total") ||
			strings.HasPrefix(line, "tasq_score_jobs_total") {
			fmt.Println("  " + line)
		}
	}
}

// Command tasqd serves PCC predictions over HTTP — the deployed model
// endpoint of the paper's Figure 4 system integration. It serves a
// pipeline trained with "tasq train", either from a plain model file
// (-model) or live from a versioned model registry (-registry), and
// exposes:
//
//	GET  /healthz          liveness probe
//	GET  /readyz           readiness probe (503 while draining)
//	GET  /metrics          Prometheus text-format metrics
//	POST /v1/score         job scoring (see internal/serve for the schema)
//	POST /v1/score/batch   concurrent batch scoring
//	POST /v1/plan          cluster planning: allocate a job batch against a token pool
//	                       (fcfs, backfill or retry scheduling; tenant quotas; deadlines)
//	GET  /v1/models        the loaded pipeline's predictor set
//	GET  /v1/cluster       fleet identity and serving state (-cluster-id mode)
//	POST /v1/admin/reload  immediate registry sync (registry mode)
//	POST /v1/telemetry     observed-run feedback ingest (-autopilot mode)
//
// Requests may name any listed predictor (trained models or the §6
// baselines) in their `model` field; requests that name none follow the
// pipeline's fallback policy, overridable with -policy (applied to every
// hot-swapped generation in registry mode).
//
// Several tasqd replicas sharing one filesystem registry form a fleet:
// give each a -cluster-id (and optionally -peers, the other members'
// base URLs) and front them with the client-side consistent-hash
// balancer (internal/serve.ClusterClient), which keeps each shard's
// curve caches hot and fails over on member outages. GET /v1/cluster
// reports each member's identity, peers and serving versions.
//
// In registry mode the daemon never restarts to pick up a new model: it
// serves the pinned version (or the latest when nothing is pinned), polls
// the registry every -poll for new publishes, hot-swaps generations
// atomically under live traffic, and re-syncs on SIGHUP or an admin
// reload. When a version newer than the pin exists, a -shadow-sample
// fraction of live requests is mirrored through it and per-candidate
// divergence metrics are exported on /metrics, so promotion (repinning or
// unpinning) can be judged from real traffic.
//
// With -autopilot (registry mode only) the daemon closes the learning
// loop on its own: POST /v1/telemetry feeds observed runs into a
// crash-safe window store under <registry>/telemetry/, an online drift
// detector watches the active model's error EWMA (-drift-threshold), a
// drift alarm retrains over the window and publishes the result as a
// shadow candidate, and once the candidate beats the active model over
// -promote-min-n paired samples it is auto-pinned — with a guardrail
// watching the next -guardrail-window observations that rolls back to the
// previous generation exactly once on an error spike.
//
// Scoring endpoints sit behind a bounded admission gate (-max-inflight,
// -max-queue, -queue-wait): beyond the concurrency limit requests wait in
// a FIFO queue, and overflow or queue-deadline expiry is shed with 429 +
// Retry-After or 504 instead of queueing unboundedly.
//
// The daemon shuts down gracefully: on SIGINT/SIGTERM it flips /readyz to
// draining and the admission gate to refusing new scoring work (503),
// waits the readiness grace period so load balancers stop routing new
// work here, then closes the listener and lets in-flight requests finish
// within the drain deadline.
//
// For resilience testing only, -fault-profile injects deterministic
// faults (seeded; see internal/faults): scoring latency, synthetic 500s,
// per-batch-item failures, and slow or corrupt registry reads.
//
// Usage:
//
//	tasqd -model model.gob -addr :8080 -drain 15s
//	tasqd -registry models/ -poll 10s -shadow-sample 0.25 -addr :8080
//	tasqd -registry models/ -autopilot -drift-threshold 0.3 -promote-min-n 32 -addr :8080
//	tasqd -model model.gob -fault-profile 'seed=42,error=0.1,latency=0.2:5ms'  # dev chaos
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"tasq/internal/autopilot"
	"tasq/internal/drift"
	"tasq/internal/faults"
	"tasq/internal/model"
	"tasq/internal/obs"
	"tasq/internal/registry"
	"tasq/internal/serve"
	"tasq/internal/trainer"
)

// testOnListen, when set, receives the bound listener address; tests use
// it to talk to a server started on port 0.
var testOnListen func(net.Addr)

// splitPeers parses the -peers list, dropping empty entries so trailing
// commas are harmless.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// logSettings writes every flag's effective value, defaults included, as
// one JSON line, so the log says what the daemon runs with.
func logSettings(fs *flag.FlagSet) {
	settings := map[string]any{}
	fs.VisitAll(func(f *flag.Flag) {
		v := f.Value.(flag.Getter).Get()
		if d, ok := v.(time.Duration); ok {
			v = d.String()
		}
		settings[f.Name] = v
	})
	obs.NewLogger(log.Writer()).Log("settings", settings)
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tasqd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("tasqd", flag.ContinueOnError)
	modelPath := fs.String("model", "model.gob", "trained model path (from 'tasq train')")
	registryDir := fs.String("registry", "", "model registry directory; takes precedence over -model and enables hot reload")
	poll := fs.Duration("poll", serve.DefaultPollInterval, "registry poll interval")
	shadowSample := fs.Float64("shadow-sample", 1, "fraction of score requests mirrored to the shadow candidate, in [0, 1] (0 disables, 1 mirrors all)")
	addr := fs.String("addr", ":8080", "listen address")
	drain := fs.Duration("drain", 15*time.Second, "graceful-shutdown deadline for in-flight requests")
	grace := fs.Duration("grace", 0, "wait after flipping /readyz to draining before closing the listener")
	readTimeout := fs.Duration("read-timeout", 30*time.Second, "max time to read a request (header + body)")
	writeTimeout := fs.Duration("write-timeout", 60*time.Second, "max time to write a response")
	idleTimeout := fs.Duration("idle-timeout", 120*time.Second, "keep-alive idle connection timeout")
	maxHeaderBytes := fs.Int("max-header-bytes", 1<<20, "request header size limit")
	workers := fs.Int("workers", runtime.NumCPU(), "batch-scoring and plan-resolution worker pool size")
	maxInFlight := fs.Int("max-inflight", serve.DefaultMaxInFlight, "max concurrently executing scoring requests")
	maxQueue := fs.Int("max-queue", serve.DefaultMaxQueue, "max scoring requests queued behind the in-flight limit before shedding 429 (0 = no queue)")
	curveCache := fs.Int("curve-cache", serve.DefaultCurveCacheCap, "memoized-curve cache capacity per model generation (0 disables)")
	maxPlanJobs := fs.Int("max-plan-jobs", serve.DefaultMaxPlanJobs, "max jobs accepted per POST /v1/plan request; the 16 MiB request-body bound binds first, at about 1,100 jobs of 15 KB")
	queueWait := fs.Duration("queue-wait", serve.DefaultQueueWait, "max time a scoring request may wait in the admission queue before shedding 504")
	autopilotOn := fs.Bool("autopilot", false, "close the learning loop: ingest /v1/telemetry, detect drift, retrain, auto-promote with a rollback guardrail (requires -registry)")
	driftThreshold := fs.Float64("drift-threshold", drift.DefaultConfig().Threshold, "relative-error EWMA above which the drift alarm fires a retrain (autopilot mode)")
	promoteMinN := fs.Int("promote-min-n", autopilot.DefaultMachineConfig().PromoteMinN, "paired error samples required before a candidate may be auto-promoted (autopilot mode)")
	guardrailWindow := fs.Int("guardrail-window", autopilot.DefaultMachineConfig().GuardrailWindow, "post-promotion observations the rollback guardrail watches (autopilot mode)")
	faultProfile := fs.String("fault-profile", "", "DEV ONLY: inject deterministic faults, e.g. 'seed=42,latency=0.2:5ms,error=0.1,batch-item=0.05,registry-slow=0.1:10ms,registry-corrupt=0.02'")
	policyFlag := fs.String("policy", "", "comma-separated predictor fallback chain for requests that name no model (e.g. 'GNN,NN'; empty = built-in NN,GNN,XGBoost-PL order)")
	clusterID := fs.String("cluster-id", "", "fleet member ID for cluster mode; enables GET /v1/cluster")
	peersFlag := fs.String("peers", "", "comma-separated base URLs of the other fleet members (requires -cluster-id)")
	quiet := fs.Bool("quiet", false, "disable structured request logging")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *poll <= 0 {
		return fmt.Errorf("-poll %v: must be positive", *poll)
	}
	if *autopilotOn && *registryDir == "" {
		return errors.New("-autopilot requires -registry (the loop retrains into and promotes within a registry)")
	}
	peers := splitPeers(*peersFlag)
	if len(peers) > 0 && *clusterID == "" {
		return errors.New("-peers requires -cluster-id (a member must know its own ring key)")
	}
	policy := model.ParsePolicy(*policyFlag)
	opts := []serve.Option{
		serve.WithShadowSampleRate(*shadowSample),
		serve.WithWorkers(*workers),
		serve.WithAdmission(*maxInFlight, *maxQueue, *queueWait),
		serve.WithCurveCache(*curveCache),
		serve.WithMaxPlanJobs(*maxPlanJobs),
	}
	if !*quiet {
		opts = append(opts, serve.WithLogger(obs.NewLogger(os.Stderr)))
	}
	if *clusterID != "" {
		opts = append(opts, serve.WithClusterInfo(*clusterID, peers))
	}
	// The server refuses a meaningless setting; find out before the
	// registry, the telemetry window or the listener is touched.
	if _, err := serve.NewUnloadedServer(opts...); err != nil {
		return err
	}
	logSettings(fs)

	var inj *faults.Injector
	if *faultProfile != "" {
		seed, profile, err := faults.ParseProfile(*faultProfile)
		if err != nil {
			return err
		}
		if !profile.Zero() {
			inj = faults.New(seed, profile)
			opts = append(opts, serve.WithFaultInjector(inj))
			log.Printf("tasqd: WARNING: fault injection enabled (seed=%d, profile %+v) — requests WILL fail on purpose; never use -fault-profile in production", seed, profile)
		}
	}

	var srv *serve.Server
	var source string
	if *registryDir != "" {
		// Registry mode: sync the pinned/latest version before the
		// listener opens, then hot-reload from the poller, SIGHUP and
		// the admin endpoint.
		reg, err := registry.Open(*registryDir)
		if err != nil {
			return err
		}
		if inj != nil {
			// The dev fault profile also exercises the reload path: slow
			// and corrupt artifact reads on every registry sync.
			reg.SetReadHook(inj.RegistryRead)
		}
		var ap *autopilot.Autopilot
		if *autopilotOn {
			// The window store lives beside the versions it feeds; the
			// registry ignores non-v* entries, so it is GC-safe there.
			win, err := autopilot.OpenWindow(
				filepath.Join(*registryDir, "telemetry", "window.jsonl"), autopilot.DefaultWindowCap)
			if err != nil {
				return err
			}
			defer win.Close()
			apCfg := autopilot.DefaultConfig(1)
			apCfg.Drift.Threshold = *driftThreshold
			apCfg.Machine.PromoteMinN = *promoteMinN
			apCfg.Machine.GuardrailWindow = *guardrailWindow
			if !*quiet {
				apCfg.Logf = log.Printf
			}
			ap = autopilot.New(reg, win, apCfg)
			opts = append(opts, serve.WithTelemetry(ap))
		}
		srv, err = serve.NewUnloadedServer(opts...)
		if err != nil {
			return err
		}
		reloader, err := serve.NewReloader(reg, srv, *poll, log.Printf)
		if err != nil {
			return err
		}
		if len(policy) > 0 {
			// Every hot-swapped generation scores with the same override.
			reloader.OnLoad(func(p *trainer.Pipeline) { p.ScorePolicy = policy })
		}
		if err := reloader.Sync(); err != nil {
			return fmt.Errorf("initial registry sync: %w", err)
		}
		if ap != nil {
			// Loop decisions (candidate publish, promotion pin, rollback)
			// surface in the serving layer immediately, not at the next poll.
			ap.SyncFn = reloader.Sync
			ap.BindMetrics(srv.Registry())
			ap.Start(ctx)
		}
		go reloader.Run(ctx)
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for {
				select {
				case <-ctx.Done():
					return
				case <-hup:
					if err := reloader.Sync(); err != nil {
						log.Printf("tasqd: SIGHUP reload: %v", err)
					} else {
						log.Printf("tasqd: SIGHUP reload: active v%d, shadow v%d",
							srv.ActiveVersion(), srv.ShadowVersion())
					}
				}
			}
		}()
		source = fmt.Sprintf("registry %s (v%d)", *registryDir, srv.ActiveVersion())
		if ap != nil {
			source += " with autopilot"
		}
	} else {
		p, err := trainer.LoadPipelineFile(*modelPath)
		if err != nil {
			return err
		}
		if len(policy) > 0 {
			// Reject typo'd chains at startup, not per request.
			for _, name := range policy {
				if _, err := p.Predictors().Get(name); err != nil {
					return fmt.Errorf("-policy: %w", err)
				}
			}
			p.ScorePolicy = policy
		}
		srv, err = serve.NewServer(p, opts...)
		if err != nil {
			return err
		}
		source = "model " + *modelPath
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if testOnListen != nil {
		testOnListen(ln.Addr())
	}
	log.Printf("tasqd: serving %s on %s", source, ln.Addr())

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadTimeout:       *readTimeout,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
		MaxHeaderBytes:    *maxHeaderBytes,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		// Serve never returns nil; without a shutdown this is a real
		// listener failure.
		return err
	case <-ctx.Done():
	}

	// Drain: flip readiness and the admission gate first so orchestrators
	// stop sending traffic and new scoring work is refused with 503 while
	// queued requests finish, give load balancers the grace period to
	// notice, then close the listener and wait for in-flight requests up
	// to the drain deadline.
	log.Printf("tasqd: draining (grace %s, deadline %s)", *grace, *drain)
	srv.BeginDrain()
	if *grace > 0 {
		time.Sleep(*grace)
	}
	shCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		// Deadline exceeded: hard-close whatever is left.
		httpSrv.Close()
		return fmt.Errorf("drain deadline exceeded: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("tasqd: drained, bye")
	return nil
}

package main

// offline_pipeline: ingest, train and evaluate in process, over and over.
// One repetition is one window. It is the only workload that runs the ml
// layers backwards (gradient passes, tree growing); the score workloads
// only read them.

import (
	"context"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"tasq/internal/arepas"
	"tasq/internal/jobrepo"
	"tasq/internal/parallel"
	"tasq/internal/scopesim"
	"tasq/internal/serve"
	"tasq/internal/trainer"
)

// sameEvals compares two evaluations exactly; XGBoost SS has no parametric
// curve, so its ParamMAE is NaN on both sides.
func sameEvals(a, b []trainer.ModelEval) bool {
	same := func(x, y float64) bool { return x == y || (math.IsNaN(x) && math.IsNaN(y)) }
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Model != b[i].Model || !same(a[i].Pattern, b[i].Pattern) ||
			!same(a[i].ParamMAE, b[i].ParamMAE) || !same(a[i].RuntimeMedianAE, b[i].RuntimeMedianAE) {
			return false
		}
	}
	return true
}

func runOffline(cfg runConfig) (*outcome, error) {
	out := &outcome{values: map[string]float64{}}
	var jobs []*scopesim.Job
	setup, err := fastest(cfg.setupFill, func() (time.Duration, error) {
		t0 := time.Now()
		jobs = population(cfg.sz)
		return time.Since(t0), nil
	})
	if err != nil {
		return nil, err
	}
	out.values["setup_s"] = setup.Seconds()

	// The warm-up repetition is the reference every timed one must equal.
	p, recs, ref, err := pipelineRun(jobs, cfg.sz)
	if err != nil {
		return nil, err
	}
	if out.values["runtime_mape_pct"], err = nnMAPEPct(ref); err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(p)
	if err != nil {
		return nil, err
	}
	if out.values["saved_vs_peak_pct"], err = savedVsPeakPct(srv, heldOutJobs(recs[cfg.sz.train:]), cfg.sz.capacity); err != nil {
		return nil, err
	}

	var ws []window
	host := watchHost(0)
	defer host.close()
	budget := time.Duration(cfg.windows) * cfg.window
	for start := time.Now(); len(ws) == 0 || time.Since(start) < budget; {
		// Each repetition starts from a collected heap, as a fresh `tasq
		// train` does: left to the pacer's phase, peak RSS ranged 42-68 MB
		// between runs of the same code; collected first, 40-43 MB.
		runtime.GC()
		e0 := host.read()
		_, _, evals, err := pipelineRun(jobs, cfg.sz)
		e1 := host.read()
		out.attempted++
		w := between(e0, e1)
		w.lat = []float64{float64(w.dur) / float64(time.Millisecond)}
		ws = append(ws, w)
		switch {
		case err != nil:
			out.failed++
			out.problemf("repetition %d: %v", len(ws), err)
		case !sameEvals(evals, ref):
			out.failed++
			out.problemf("repetition %d evaluated to %+v, the first to %+v", len(ws), evals, ref)
		}
	}
	out.sum, out.windows = summarize(ws, cfg.sz.population), ws
	out.timings()
	if cfg.trace {
		tr := newTracer()
		if err := offlineLayers(cfg, tr, out); err != nil {
			return nil, err
		}
		driverLayers(out, tr, "driver.op")
		if err := tr.write(filepath.Join(cfg.outDir, cfg.workload+".trace.json")); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// offlineLayers is the traced pass: a few repetitions taken stage by
// stage. The per-model training times come from differencing trainings
// with the NN and the GNN switched off.
func offlineLayers(cfg runConfig, tr *tracer, out *outcome) error {
	workers := runtime.NumCPU()
	for r := 0; r < cfg.sz.layerReps; r++ {
		n := int64(r)
		id := tr.begin(0, n, "workload.generate", false)
		jobs := population(cfg.sz)
		tr.end(id)

		// The operation of the timed windows, stage by stage.
		op := tr.begin(0, n, "driver.op", false)
		repo := jobrepo.New()
		id = tr.begin(op, n, "jobrepo.ingest", false)
		err := repo.IngestParallel(jobs, &scopesim.Executor{}, workers)
		tr.end(id)
		if err != nil {
			return err
		}
		recs := repo.All()
		train, heldOut := recs[:cfg.sz.train], recs[cfg.sz.train:]

		tcfg := trainConfig(cfg.sz)
		tid := tr.begin(op, n, "trainer.train", false)
		p, err := trainer.Train(train, tcfg)
		tr.end(tid)
		if err != nil {
			return err
		}

		eid := tr.begin(op, n, "trainer.evaluate", false)
		_, err = p.EvaluateHistorical(heldOut)
		tr.end(eid)
		tr.end(op)
		if err != nil {
			return err
		}

		id = tr.begin(0, n, "trainer.persist", false)
		err = trainer.SavePipelineFile(p, filepath.Join(cfg.outDir, "offline.model.gob"))
		tr.end(id)
		if err != nil {
			return err
		}

		// Replays of what Train and EvaluateHistorical are made of.
		id = tr.begin(tid, n, "trainer.targets", false)
		_, err = parallel.Map(context.Background(), len(train), workers, func(i int) (trainer.Target, error) {
			return trainer.BuildTarget(train[i], arepas.GridFractions)
		})
		tr.end(id)
		if err != nil {
			return err
		}
		for _, rec := range train {
			grid := arepas.FractionGrid(rec.ObservedTokens, arepas.GridFractions)
			sid := tr.begin(id, n, "arepas.sweep", false)
			_, err := arepas.Sweep(rec.Skyline, grid)
			tr.end(sid)
			if err != nil {
				return err
			}
		}
		for _, skip := range []struct {
			name    string
			nn, gnn bool
		}{{"trainer.train.skip_gnn", false, true}, {"trainer.train.skip_nn_gnn", true, true}} {
			c := tcfg
			c.SkipNN, c.SkipGNN = skip.nn, skip.gnn
			id = tr.begin(tid, n, skip.name, false)
			_, err = trainer.Train(train, c)
			tr.end(id)
			if err != nil {
				return err
			}
		}
		for _, rec := range heldOut {
			for _, model := range adhocModels {
				id = tr.begin(eid, n, "trainer.score_job."+modelSlug[model], false)
				_, _, err = p.ScoreJobModel(model, rec.Job)
				tr.end(id)
				if err != nil {
					return err
				}
			}
		}
	}
	ls := tr.layers()
	sec := func(name string) float64 {
		if l := ls[name]; l != nil {
			return median(l.durUs) / 1e6
		}
		return 0
	}
	for _, name := range []string{"workload.generate", "jobrepo.ingest", "trainer.targets", "trainer.train", "trainer.evaluate", "trainer.persist"} {
		out.values[name+"_s"] = sec(name)
	}
	out.values["arepas.sweep_us"] = sec("arepas.sweep") * 1e6
	for _, slug := range modelSlug {
		out.values["trainer.score_job_us."+slug] = sec("trainer.score_job."+slug) * 1e6
	}
	out.values["trainer.train_gnn_s"] = sec("trainer.train") - sec("trainer.train.skip_gnn")
	out.values["trainer.train_nn_s"] = sec("trainer.train.skip_gnn") - sec("trainer.train.skip_nn_gnn")
	out.values["trainer.train_xgb_s"] = sec("trainer.train.skip_nn_gnn") - sec("trainer.targets")
	out.notef("traced sample: %d repetitions", cfg.sz.layerReps)
	return nil
}

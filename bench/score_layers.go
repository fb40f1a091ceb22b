package main

// The traced pass of the score workloads: a fixed sample of requests, each
// sent to tasqd over one connection and then replayed layer by layer
// through the public functions the handler is made of.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"tasq/internal/features"
	"tasq/internal/pcc"
	"tasq/internal/serve"
	"tasq/internal/trainer"
)

// modelSlug maps a predictor name to its metric suffix.
var modelSlug = map[string]string{
	trainer.ModelNN: "nn", trainer.ModelGNN: "gnn", trainer.ModelXGBPL: "xgbpl", trainer.ModelXGBSS: "xgbss",
}

// scoreLayers continues the request sequence at index from, so that the
// daemon's cache sees the sample exactly as it saw the timed run.
func scoreLayers(cfg runConfig, f *fixture, in *scoreInputs, target *scoreTarget, tr *tracer, from int64, out *outcome) error {
	// Two in-process servers over the model file tasqd serves: one takes
	// the whole-handler replays, one the ScoreLocal replays, so that on
	// score_adhoc each sees every key for the first time, as tasqd does.
	viaHandler, err := f.oracle()
	if err != nil {
		return err
	}
	viaLocal, err := f.oracle()
	if err != nil {
		return err
	}
	adhoc := in.probes != nil
	if !adhoc {
		for _, srv := range []*serve.Server{viaHandler, viaLocal} {
			for _, job := range in.jobs {
				resp, err := srv.ScoreLocal(&serve.ScoreRequest{Job: job})
				if err != nil {
					return err
				}
				resp.Release()
			}
		}
	}
	client := newScoreClient()
	handler := viaHandler.Handler()
	var encoded bytes.Buffer
	for n := 0; n < cfg.sz.layerRequests; n++ {
		i := from + int64(n)
		j, m := in.pick(i)
		job, model := in.jobs[j], in.models[m]

		root := tr.begin(0, i, "request", false)
		id := tr.begin(root, i, "client.encode", false)
		body, err := json.Marshal(&serve.ScoreRequest{Job: job, Model: model})
		tr.end(id)
		if err != nil {
			return err
		}
		roundtrip := tr.begin(root, i, "http.roundtrip", false)
		status, err := client.do(http.MethodPost, target.url+"/v1/score", body)
		tr.end(roundtrip)
		tr.end(root)
		out.attempted++
		if err == nil {
			err = checkAnswer(status, client.resp.Bytes(), in.want[j*len(in.models)+m])
		}
		if err != nil {
			out.failed++
			out.problemf("traced request %d: %v", i, err)
			continue
		}
		id = tr.begin(0, i, "http.healthz", false)
		status, err = client.do(http.MethodGet, target.url+"/healthz", nil)
		tr.end(id)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("GET /healthz: status %d: %v", status, err)
		}

		// Replays, each parented to the span it would run inside.
		hreq := httptest.NewRequest(http.MethodPost, "/v1/score", bytes.NewReader(body))
		hrec := httptest.NewRecorder()
		hid := tr.begin(roundtrip, i, "serve.handler", true)
		handler.ServeHTTP(hrec, hreq)
		tr.end(hid)
		if err := checkAnswer(hrec.Code, hrec.Body.Bytes(), in.want[j*len(in.models)+m]); err != nil {
			return fmt.Errorf("handler replay of request %d: %w", i, err)
		}

		var sreq serve.ScoreRequest
		id = tr.begin(hid, i, "serve.decode", true)
		err = json.Unmarshal(body, &sreq)
		tr.end(id)
		if err != nil {
			return err
		}
		lid := tr.begin(hid, i, "serve.score_local", true)
		resp, err := viaLocal.ScoreLocal(&sreq)
		tr.end(lid)
		if err != nil {
			return err
		}
		encoded.Reset()
		id = tr.begin(hid, i, "serve.encode", false)
		err = json.NewEncoder(&encoded).Encode(resp)
		tr.end(id)
		if err != nil {
			return err
		}
		curve := pcc.Curve{A: resp.Curve.A, B: resp.Curve.B}
		resp.Release()

		id = tr.begin(lid, i, "serve.key", false)
		key := serve.RouteKey(model, job)
		tr.end(id)
		if len(key) == 0 {
			return fmt.Errorf("empty route key for job %s", job.ID)
		}
		if adhoc {
			// A miss also extracts features and runs the predictor.
			id = tr.begin(lid, i, "features.extract", false)
			features.JobVector(job)
			features.OperatorMatrix(job)
			features.NormalizedAdjacency(job)
			tr.end(id)
			id = tr.begin(lid, i, "trainer.score_job."+modelSlug[model], false)
			_, _, err = f.pipeline.ScoreJobModel(model, job)
			tr.end(id)
			if err != nil {
				return err
			}
		}
		id = tr.begin(lid, i, "pcc.optimal_tokens", false)
		curve.OptimalTokens(1, max(job.RequestedTokens, 1), 0.01)
		tr.end(id)
	}

	ls := tr.layers()
	med := func(name string, pick func(*layer) []float64) float64 {
		if l := ls[name]; l != nil {
			return median(pick(l))
		}
		return 0
	}
	dur := func(l *layer) []float64 { return l.durUs }
	self := func(l *layer) []float64 { return l.selfUs }
	allocs := func(l *layer) []float64 { return l.allocs }
	for _, name := range []string{"client.encode", "http.roundtrip", "http.healthz", "serve.handler", "serve.decode",
		"serve.key", "serve.score_local", "serve.encode", "features.extract", "pcc.optimal_tokens"} {
		out.values[name+"_us"] = med(name, dur)
	}
	for _, slug := range modelSlug {
		out.values["trainer.score_job_us."+slug] = med("trainer.score_job."+slug, dur)
	}
	out.values["http.transport_us"] = med("http.roundtrip", self)
	out.values["serve.handler_other_us"] = med("serve.handler", self)
	for _, name := range []string{"serve.handler", "serve.decode", "serve.score_local"} {
		out.values[name+"_allocs"] = med(name, allocs)
	}

	// The handler's parts must account for the handler: replayed one by one
	// they have to add up to the whole replayed at once, or a layer is
	// missing from the table.
	parts := out.values["serve.decode_us"] + out.values["serve.score_local_us"] + out.values["serve.encode_us"] + out.values["serve.handler_other_us"]
	whole := out.values["serve.handler_us"]
	out.notef("traced sample: %d requests; handler parts sum to %.1f us, %.1f%% of serve.handler_us %.1f", cfg.sz.layerRequests, parts, 100*parts/whole, whole)
	if tol := cfg.sz.handlerPartsTol; tol > 0 && (parts < (1-tol)*whole || parts > (1+tol)*whole) {
		out.problemf("handler parts sum to %.1f us, more than %.0f%% from serve.handler_us %.1f", parts, 100*tol, whole)
	}
	return nil
}

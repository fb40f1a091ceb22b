package trainer

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"tasq/internal/features"
	"tasq/internal/jobrepo"
	"tasq/internal/ml/autodiff"
	"tasq/internal/ml/gnn"
	"tasq/internal/ml/linalg"
	"tasq/internal/ml/nn"
)

// trainNN and trainGNN run every step on one recycled tape. The references
// below are the same loops on a fresh NewTape per step and, for the GNN,
// 1x1 loss constants from the heap instead of the tape's arena: the way
// training ran before the tape had an arena. The arena must be invisible,
// so every parameter must come out equal bit for bit.

func freshTapeNN(t *testing.T, recs []*jobrepo.Record, p *Pipeline, xgbPreds []float64, cfg NeuralConfig) []*linalg.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(p.Config.Seed))
	dims := []int{features.JobDim, nnHidden, nnHidden, 2}
	mlp := nn.NewMLP(rng, dims, nn.ActReLU)
	x := linalg.New(len(recs), features.JobDim)
	for i, rec := range recs {
		copy(x.Row(i), scaledJobVector(p.JobScaler, rec.Job))
	}
	in, err := buildLossInputs(recs, p.TrainTargets, p.Scaling, xgbPreds, cfg.Loss)
	if err != nil {
		t.Fatal(err)
	}
	opt := nn.NewAdam(cfg.LearningRate)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		tape := autodiff.NewTape()
		raw, paramNodes := mlp.Forward(tape, tape.Const(x))
		a, logb := signSafeParams(raw, p.Scaling)
		autodiff.Backward(neuralLoss(tape, a, logb, in, p.Scaling, cfg))
		opt.Step(mlp.Params(), nn.GradsOf(paramNodes))
	}
	return mlp.Params()
}

// freshRow copies sample i of the loss inputs into new 1x1 matrices.
func freshRow(in lossInputs, i int) lossInputs {
	pick := func(m *linalg.Matrix) *linalg.Matrix {
		if m == nil {
			return nil
		}
		return linalg.FromSlice(1, 1, []float64{m.Data[i]})
	}
	return lossInputs{
		za: pick(in.za), zb: pick(in.zb),
		logTokens: pick(in.logTokens), runtime: pick(in.runtime), invRuntime: pick(in.invRuntime),
		xgbPred: pick(in.xgbPred), invXgbPred: pick(in.invXgbPred),
	}
}

func freshTapeGNN(t *testing.T, recs []*jobrepo.Record, p *Pipeline, xgbPreds []float64, cfg NeuralConfig) (params []*linalg.Matrix, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(p.Config.Seed))
	net := gnn.New(rng, gnn.DefaultConfig(features.OperatorDim))
	in, err := buildLossInputs(recs, p.TrainTargets, p.Scaling, xgbPreds, cfg.Loss)
	if err != nil {
		t.Fatal(err)
	}
	opt := nn.NewAdam(cfg.LearningRate)
	order := rng.Perm(len(recs))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			tape := autodiff.NewTape()
			f := scaledOperatorMatrix(p.OpScaler, recs[i].Job)
			adj := features.NormalizedAdjacency(recs[i].Job)
			raw, paramNodes := net.Forward(tape, tape.Const(f), tape.Const(adj))
			a, logb := signSafeParams(raw, p.Scaling)
			autodiff.Backward(neuralLoss(tape, a, logb, freshRow(in, i), p.Scaling, cfg))
			opt.Step(net.Params(), nn.GradsOf(paramNodes))
			steps++
		}
	}
	return net.Params(), steps
}

func requireSameParams(t *testing.T, model string, got, want []*linalg.Matrix) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d parameter tensors, want %d", model, len(got), len(want))
	}
	for pi := range want {
		if !got[pi].SameShape(want[pi]) {
			t.Fatalf("%s: tensor %d is %dx%d, want %dx%d", model, pi, got[pi].Rows, got[pi].Cols, want[pi].Rows, want[pi].Cols)
		}
		for k := range want[pi].Data {
			if math.Float64bits(got[pi].Data[k]) != math.Float64bits(want[pi].Data[k]) {
				t.Fatalf("%s: tensor %d element %d: reused tape %v, fresh tapes %v",
					model, pi, k, got[pi].Data[k], want[pi].Data[k])
			}
		}
	}
}

func TestReusedTapeTrainsBitIdenticalToFreshTapes(t *testing.T) {
	for _, seed := range []int64{3, 11, 29} {
		for _, loss := range []LossKind{LF1, LF2, LF3} {
			seed, loss := seed, loss
			t.Run(fmt.Sprintf("seed=%d/loss=%s", seed, loss), func(t *testing.T) {
				t.Parallel()
				recs, _ := dataset(t, 20, 0, seed)
				cfg := fastConfig(seed)
				cfg.NN.Epochs, cfg.GNN.Epochs = 50, 3 // 50 NN steps, 60 GNN steps
				cfg.NN.Loss, cfg.GNN.Loss = loss, loss
				p, err := Train(recs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var xgbPreds []float64
				if loss == LF3 {
					for _, rec := range recs {
						xgbPreds = append(xgbPreds, p.XGB.PredictRuntime(rec.Job, rec.ObservedTokens))
					}
				}
				requireSameParams(t, ModelNN, p.NN.MLP.Params(), freshTapeNN(t, recs, p, xgbPreds, p.NN.Cfg))
				want, steps := freshTapeGNN(t, recs, p, xgbPreds, p.GNN.Cfg)
				if steps < 50 {
					t.Fatalf("GNN reference ran %d steps, want at least 50", steps)
				}
				requireSameParams(t, ModelGNN, p.GNN.Net.Params(), want)
			})
		}
	}
}

// The autopilot retrains inside the serving process and nothing stops two
// trainings from overlapping; each owns its tapes, so each must produce the
// pipeline it produces alone. Run under -race (make race covers this
// package) the test also proves the arenas share nothing.
func TestConcurrentTrainingsMatchSolo(t *testing.T) {
	type job struct {
		recs []*jobrepo.Record
		cfg  Config
	}
	var jobs []job
	for _, seed := range []int64{5, 17} {
		recs, _ := dataset(t, 24, 0, seed)
		cfg := fastConfig(seed)
		cfg.NN.Epochs, cfg.GNN.Epochs = 20, 2
		cfg.NN.Loss, cfg.GNN.Loss = LF3, LF2
		cfg.Workers = 2
		jobs = append(jobs, job{recs, cfg})
	}
	train := func(j job) ([]byte, error) {
		p, err := Train(j.recs, j.cfg)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err = SavePipeline(p, &buf)
		return buf.Bytes(), err
	}
	solo := make([][]byte, len(jobs))
	for i, j := range jobs {
		var err error
		if solo[i], err = train(j); err != nil {
			t.Fatal(err)
		}
	}
	// Two overlapping trainings of each job: four at once.
	together := make([][]byte, 2*len(jobs))
	errs := make([]error, len(together))
	var wg sync.WaitGroup
	for k := range together {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			together[k], errs[k] = train(jobs[k%len(jobs)])
		}(k)
	}
	wg.Wait()
	for k := range together {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
		if !bytes.Equal(together[k], solo[k%len(jobs)]) {
			t.Fatalf("training %d run concurrently differs from the same training run alone", k)
		}
	}
}

// A warm training step must not touch the allocator beyond the parameter-
// node and gradient slices Forward and GradsOf return: the tape's arena,
// node slab and op records are recycled, and a GNN step featurizes its job
// into the arena as trainGNN does. Before the arena a GNN step made ~510
// allocations and an NN epoch ~150; the gate keeps that from rotting back
// in silently.
func TestWarmTrainingStepAllocsGate(t *testing.T) {
	recs, _ := dataset(t, 16, 0, 41)
	cfg := fastConfig(41)
	cfg.NN.Epochs, cfg.GNN.Epochs = 1, 1
	cfg.NN.Loss, cfg.GNN.Loss = LF3, LF3 // the longest loss graph
	p, err := Train(recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	xgbPreds := make([]float64, len(recs))
	for i, rec := range recs {
		xgbPreds[i] = p.XGB.PredictRuntime(rec.Job, rec.ObservedTokens)
	}
	in, err := buildLossInputs(recs, p.TrainTargets, p.Scaling, xgbPreds, LF3)
	if err != nil {
		t.Fatal(err)
	}
	const maxAllocs = 8

	t.Run("gnn-step", func(t *testing.T) {
		gcfg := p.GNN.Cfg
		net := p.GNN.Net
		// The widest plan, so no later step outgrows the warm arena.
		widest := 0
		for i, rec := range recs {
			if len(rec.Job.Operators) > len(recs[widest].Job.Operators) {
				widest = i
			}
		}
		opt := nn.NewAdam(gcfg.LearningRate)
		params := net.Params()
		tape := autodiff.NewTape()
		step := func() {
			f, adj := graphInputs(tape.Matrix, p.OpScaler, recs[widest].Job)
			raw, paramNodes := net.Forward(tape, tape.Const(f), tape.Const(adj))
			neuralStep(tape, opt, params, raw, paramNodes, in.row(tape, widest), p.Scaling, gcfg)
		}
		step() // warm the arena, the slab and Adam's moments
		step()
		if got := testing.AllocsPerRun(20, step); got > maxAllocs {
			t.Fatalf("warm GNN step makes %.0f allocations, gate is %d", got, maxAllocs)
		}
	})

	t.Run("nn-epoch", func(t *testing.T) {
		ncfg := p.NN.Cfg
		mlp := p.NN.MLP
		x := linalg.New(len(recs), features.JobDim)
		for i, rec := range recs {
			copy(x.Row(i), scaledJobVector(p.JobScaler, rec.Job))
		}
		opt := nn.NewAdam(ncfg.LearningRate)
		params := mlp.Params()
		tape := autodiff.NewTape()
		epoch := func() {
			raw, paramNodes := mlp.Forward(tape, tape.Const(x))
			neuralStep(tape, opt, params, raw, paramNodes, in, p.Scaling, ncfg)
		}
		epoch()
		epoch()
		if got := testing.AllocsPerRun(20, epoch); got > maxAllocs {
			t.Fatalf("warm NN epoch makes %.0f allocations, gate is %d", got, maxAllocs)
		}
	})
}

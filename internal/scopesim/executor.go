package scopesim

import (
	"fmt"
	"math"
	"math/rand"

	"tasq/internal/eventq"
	"tasq/internal/plan"
	"tasq/internal/skyline"
)

// ErrBadAllocation marks a zero or negative token allocation — the
// shared typed error from internal/plan, so the serving layer maps it to
// HTTP 400 wherever it surfaces.
var ErrBadAllocation = plan.ErrBadAllocation

// Execution is the result of running a job on the cluster simulator.
type Execution struct {
	JobID           string
	TokensAllocated int
	Skyline         skyline.Skyline
	// RuntimeSeconds == Skyline.Runtime(); kept explicit for telemetry.
	RuntimeSeconds int
}

// Noise configures stochastic execution for flighting experiments. The
// zero value means fully deterministic execution.
type Noise struct {
	// Sigma is the log-normal standard deviation applied to each task
	// wave's duration, modeling environmental variance (cluster load,
	// noisy neighbors). 0 disables it.
	Sigma float64
	// SlowdownProb is the per-execution probability that one random stage
	// suffers an anomalous slowdown of SlowdownFactor (a straggler or
	// machine failure with retry), which must then be at least 1. 0
	// disables it.
	SlowdownProb   float64
	SlowdownFactor float64
	// GlobalSigma is a log-normal factor applied once per execution to
	// every task duration — run-to-run environmental drift (cluster load,
	// hardware generation, time of day) that changes the total work done,
	// the effect behind the area variation of Figure 12. 0 disables it.
	GlobalSigma float64
}

// Executor runs jobs on a simulated token-based cluster: every task
// occupies one token (container) for its duration; ready stages receive
// free tokens in stage-ID order (FIFO); a stage becomes ready when all its
// dependencies finish. The scheduler is work-conserving, so run time is
// (near-)monotone non-increasing in the allocation — the paper's §4.1
// common case — while DAG barriers produce the peaks and valleys real
// skylines show.
type Executor struct {
	// MaxRuntimeSeconds aborts runaway simulations. Zero means the
	// default cap of 1<<22 seconds (~48 days), far beyond any generated
	// job.
	MaxRuntimeSeconds int
}

const defaultMaxRuntime = 1 << 22

// Run executes the job deterministically with the given token allocation.
func (e *Executor) Run(job *Job, tokens int) (*Execution, error) {
	return e.run(job, tokens, nil, Noise{})
}

// RunNoisy executes the job with environmental noise drawn from rng,
// modeling a flight in a busy pre-production cluster. A slowdown that can
// happen (SlowdownProb > 0) must slow down: SlowdownFactor ≥ 1.
func (e *Executor) RunNoisy(job *Job, tokens int, rng *rand.Rand, noise Noise) (*Execution, error) {
	if rng == nil {
		return nil, fmt.Errorf("scopesim: RunNoisy requires a rand source")
	}
	if noise.SlowdownProb > 0 && !(noise.SlowdownFactor >= 1) {
		return nil, fmt.Errorf("scopesim: slowdown factor %v with probability %v must be at least 1", noise.SlowdownFactor, noise.SlowdownProb)
	}
	return e.run(job, tokens, rng, noise)
}

// taskEvent is a batch of same-stage tasks finishing at the same second,
// queued at its finish time.
type taskEvent struct {
	stage int
	count int
}

func (e *Executor) run(job *Job, tokens int, rng *rand.Rand, noise Noise) (*Execution, error) {
	if tokens < 1 {
		// Clamp-and-error: report what a minimal valid simulation would
		// have used, but refuse to run — a zero/negative allocation is
		// always a caller bug, never a simulation to answer silently.
		return nil, fmt.Errorf("%w: scopesim allocation %d < 1 token (minimum 1)", ErrBadAllocation, tokens)
	}
	if err := job.Validate(); err != nil {
		return nil, err
	}
	maxRuntime := e.MaxRuntimeSeconds
	if maxRuntime <= 0 {
		maxRuntime = defaultMaxRuntime
	}

	n := len(job.Stages)
	if n == 0 {
		return &Execution{JobID: job.ID, TokensAllocated: tokens, Skyline: skyline.Skyline{}}, nil
	}

	// Anomalous slowdown: one random stage's tasks run slower this flight.
	slowStage, slowFactor := -1, 1.0
	if rng != nil && noise.SlowdownProb > 0 && rng.Float64() < noise.SlowdownProb {
		slowStage = rng.Intn(n)
		slowFactor = noise.SlowdownFactor
	}
	// Per-execution environmental drift scaling all durations.
	global := 1.0
	if rng != nil && noise.GlobalSigma > 0 {
		global = math.Exp(rng.NormFloat64() * noise.GlobalSigma)
	}

	pendingDeps := make([]int, n)
	dependents := make([][]int, n)
	unstarted := make([]int, n) // tasks not yet started
	remaining := make([]int, n) // tasks not yet finished
	for i, st := range job.Stages {
		pendingDeps[i] = len(st.Deps)
		unstarted[i] = st.Tasks
		remaining[i] = st.Tasks
		for _, d := range st.Deps {
			dependents[d] = append(dependents[d], i)
		}
	}

	// ready holds stage IDs with no pending deps and unstarted tasks,
	// keyed on the ID itself so that they are served in ascending order
	// (generation emits stages in topological order, so this is FIFO by
	// readiness).
	var ready eventq.Queue[struct{}]
	for i := 0; i < n; i++ {
		if pendingDeps[i] == 0 {
			ready.Push(i, struct{}{})
		}
	}

	var events eventq.Queue[taskEvent]
	// Token usage is constant between events, so it is recorded as runs
	// and the skyline is laid out once, at its exact length, at the end.
	type usage struct{ used, until int }
	var buf [16]usage
	runs := buf[:0]
	// The free-token ledger is the shared allocation core's Pool — the
	// same accounting the FCFS cluster simulator admits jobs with.
	pool, err := plan.NewPoolQuota(tokens, nil)
	if err != nil {
		return nil, err
	}
	t := 0

	duration := func(stage int) int {
		d := float64(job.Stages[stage].TaskSeconds) * global
		if stage == slowStage {
			d *= slowFactor
		}
		if rng != nil && noise.Sigma > 0 {
			d *= math.Exp(rng.NormFloat64() * noise.Sigma)
		}
		id := int(math.Round(d))
		if id < 1 {
			id = 1
		}
		return id
	}

	for events.Len() > 0 || ready.Len() > 0 {
		// Start as many tasks as free tokens allow, lowest stage ID first.
		for pool.Free() > 0 && ready.Len() > 0 {
			s := ready.At()
			k := pool.AcquireUpTo(unstarted[s])
			unstarted[s] -= k
			if unstarted[s] == 0 {
				ready.Pop()
			}
			events.Push(t+duration(s), taskEvent{stage: s, count: k})
		}
		if events.Len() == 0 {
			// No running tasks and nothing startable: the stage graph has
			// unreachable work (Validate should have caught cycles).
			return nil, fmt.Errorf("scopesim: job %s deadlocked at t=%d", job.ID, t)
		}
		next := events.At()
		if next > maxRuntime {
			return nil, fmt.Errorf("scopesim: job %s exceeded max runtime %ds", job.ID, maxRuntime)
		}
		// Record token usage for [t, next).
		if used := pool.InUse(); len(runs) > 0 && runs[len(runs)-1].used == used {
			runs[len(runs)-1].until = next
		} else {
			runs = append(runs, usage{used, next})
		}
		t = next
		// Process all completions at this instant.
		for events.Len() > 0 && events.At() == next {
			_, ev := events.Pop()
			if err := pool.ReleaseTenant("", ev.count); err != nil {
				return nil, fmt.Errorf("scopesim: job %s ledger corrupt at t=%d: %w", job.ID, t, err)
			}
			remaining[ev.stage] -= ev.count
			if remaining[ev.stage] == 0 {
				for _, dep := range dependents[ev.stage] {
					pendingDeps[dep]--
					if pendingDeps[dep] == 0 {
						ready.Push(dep, struct{}{})
					}
				}
			}
		}
	}

	sky := make(skyline.Skyline, 0, t)
	for _, r := range runs {
		for len(sky) < r.until {
			sky = append(sky, r.used)
		}
	}
	return &Execution{
		JobID:           job.ID,
		TokensAllocated: tokens,
		Skyline:         sky,
		RuntimeSeconds:  t,
	}, nil
}

package serve

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"tasq/internal/obs"
	"tasq/internal/pcc"
	"tasq/internal/scopesim"
	"tasq/internal/trainer"
	"tasq/internal/workload"
)

// predictorNames are the four predictors the paper compares on the same
// jobs, the model names ad-hoc scoring traffic sends.
var predictorNames = []string{trainer.ModelNN, trainer.ModelGNN, trainer.ModelXGBPL, trainer.ModelXGBSS}

// cacheKey is one encoded (model, job) key, split where curveFor splits it.
type cacheKey struct {
	b []byte
	n int
}

func encodeKey(model string, job *scopesim.Job) cacheKey {
	kb := &keyBuf{}
	n := appendScoreKey(kb, model, job)
	return cacheKey{kb.b, n}
}

func cacheGet(c *curveCache, k cacheKey) (cachedScore, bool) { return c.get(k.b, k.n) }

func cachePut(c *curveCache, k cacheKey, v cachedScore) { c.put(k.b, k.n, v) }

// adhocJobs generates n never-seen jobs the way the benchmark's ad-hoc
// pool does (every job a fresh plan).
func adhocJobs(n int) []*scopesim.Job {
	cfg := workload.TestConfig(7)
	cfg.AdHocFraction = 1
	return workload.New(cfg).Workload(n)
}

// refModels exercises the default model, the four predictors, a spelling
// that normalizes onto one of them and a name holding a 0 byte.
var refModels = append([]string{"", "xgboost-pl", "n\x00n"}, predictorNames...)

// refKey is a key of the reference check and its reference identity: the
// normalized model and the job.
type refKey struct {
	key cacheKey
	id  string
}

// refKeys are a few jobs × refModels.
var refKeys = sync.OnceValue(func() []refKey {
	jobs := append(adhocJobs(2), cacheJob(0), cacheJob(1))
	var keys []refKey
	for j, job := range jobs {
		for _, m := range refModels {
			k := encodeKey(m, job)
			keys = append(keys, refKey{k, fmt.Sprintf("%q/%d", k.b[:k.n], j)})
		}
	}
	return keys
})

// cacheOp is one step of a reference sequence: a get or a put of refKeys[key].
type cacheOp struct {
	put bool
	key int
}

// checkCacheAgainstReference runs ops on a single-shard cache of the given
// capacity and on a plain LRU of (model, job) identities, and fails at the
// first step where hit, value, eviction count or size differ.
func checkCacheAgainstReference(t *testing.T, capacity int, ops []cacheOp) {
	t.Helper()
	keys := refKeys()
	reg := obs.NewRegistry()
	c := newCurveCache(capacity, newCacheMetrics(reg))
	if len(c.shards) != 1 {
		t.Fatalf("capacity %d: %d shards, want 1", capacity, len(c.shards))
	}
	var (
		order     []string // MRU first
		vals      = map[string]float64{}
		hits      int64
		misses    int64
		evictions int64
	)
	touch := func(id string) {
		for i, o := range order {
			if o == id {
				copy(order[1:i+1], order[:i])
				order[0] = id
				return
			}
		}
		order = append([]string{id}, order...)
	}
	for step, op := range ops {
		k := keys[op.key%len(keys)]
		_, resident := vals[k.id]
		if op.put {
			cachePut(c, k.key, cachedScore{curve: pcc.Curve{A: -0.5, B: float64(step + 1)}})
			if !resident {
				vals[k.id] = float64(step + 1)
			}
			touch(k.id)
			if len(order) > capacity {
				delete(vals, order[len(order)-1])
				order = order[:len(order)-1]
				evictions++
			}
		} else {
			got, hit := cacheGet(c, k.key)
			if hit != resident {
				t.Fatalf("step %d get %s: hit=%v, reference %v", step, k.id, hit, resident)
			}
			if hit {
				hits++
				touch(k.id)
				if got.curve.B != vals[k.id] {
					t.Fatalf("step %d get %s: value %v, reference %v", step, k.id, got.curve.B, vals[k.id])
				}
			} else {
				misses++
			}
		}
		h := reg.Counter(obs.MetricCurveCacheHits).Value()
		m := reg.Counter(obs.MetricCurveCacheMisses).Value()
		e := reg.Counter(obs.MetricCurveCacheEvictions).Value()
		if h != hits || m != misses || e != evictions || c.Len() != len(order) {
			t.Fatalf("step %d: hits/misses/evictions/size %d/%d/%d/%d, reference %d/%d/%d/%d",
				step, h, m, e, c.Len(), hits, misses, evictions, len(order))
		}
	}
}

// TestCurveCacheMatchesReferenceLRU holds the cache to a plain LRU over
// (model, job) identities: sharing a job's payload across models must not
// change which lookups hit, what they return, or what is evicted when.
func TestCurveCacheMatchesReferenceLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for capacity := 1; capacity <= 12; capacity++ {
		for seq := 0; seq < 20; seq++ {
			ops := make([]cacheOp, 300)
			for i := range ops {
				ops[i] = cacheOp{put: rng.Intn(2) == 0, key: rng.Intn(len(refKeys()))}
			}
			checkCacheAgainstReference(t, capacity, ops)
		}
	}
}

// FuzzCurveCache is the reference check over arbitrary sequences: the
// first byte picks the capacity, every later byte one get or put.
func FuzzCurveCache(f *testing.F) {
	f.Add([]byte{3, 1, 3, 5, 0, 2, 7, 9, 1, 0, 4, 11})
	f.Add([]byte{0, 1, 1, 3, 3, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ops := make([]cacheOp, len(data)-1)
		for i, b := range data[1:] {
			ops[i] = cacheOp{put: b&1 == 1, key: int(b >> 1)}
		}
		checkCacheAgainstReference(t, 1+int(data[0])%12, ops)
	})
}

// TestCurveCacheConcurrentModels hammers one 16-shard cache with gets and
// puts of the same jobs under the four predictors from several goroutines
// (run with -race): every hit must return its own (model, job) curve.
func TestCurveCacheConcurrentModels(t *testing.T) {
	jobs := adhocJobs(24)
	keys := make([][]cacheKey, len(predictorNames))
	for m, name := range predictorNames {
		for _, job := range jobs {
			keys[m] = append(keys[m], encodeKey(name, job))
		}
	}
	reg := obs.NewRegistry()
	c := newCurveCache(64, newCacheMetrics(reg))
	if len(c.shards) != cacheShardCount {
		t.Fatalf("%d shards, want %d", len(c.shards), cacheShardCount)
	}
	want := func(m, j int) pcc.Curve { return pcc.Curve{A: -float64(m + 1), B: float64(j + 1)} }
	const workers, steps = 8, 2000
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < steps; i++ {
				m, j := rng.Intn(len(keys)), rng.Intn(len(jobs))
				got, hit := cacheGet(c, keys[m][j])
				if !hit {
					cachePut(c, keys[m][j], cachedScore{curve: want(m, j)})
					continue
				}
				if got.curve != want(m, j) {
					errs <- fmt.Errorf("model %d job %d: got curve %+v, want %+v", m, j, got.curve, want(m, j))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	hits := reg.Counter(obs.MetricCurveCacheHits).Value()
	misses := reg.Counter(obs.MetricCurveCacheMisses).Value()
	if hits+misses != workers*steps || hits == 0 {
		t.Fatalf("hits %d + misses %d, want %d with hits > 0", hits, misses, workers*steps)
	}
	curves := 0
	for i := range c.shards {
		s := &c.shards[i]
		curves += s.curves
		if s.curves > c.capShard {
			t.Fatalf("shard %d holds %d curves, bound %d", i, s.curves, c.capShard)
		}
	}
	if curves != c.Len() {
		t.Fatalf("shards hold %d curves, Len %d", curves, c.Len())
	}
}

// retainedPerCurve fills a cache with keys and returns the live heap it
// retains, per curve, measured after a full GC: the median of three fills,
// so that a stray allocation elsewhere in the process does not decide it.
// The cache's bound is twice the key count so that no shard evicts.
func retainedPerCurve(tb testing.TB, keys []cacheKey) float64 {
	tb.Helper()
	var runs [3]float64
	for i := range runs {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c := newCurveCache(2*len(keys), newCacheMetrics(obs.NewRegistry()))
		for _, k := range keys {
			cachePut(c, k, cachedScore{curve: pcc.Curve{A: -0.5, B: 100}, model: trainer.ModelNN})
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if c.Len() != len(keys) {
			tb.Fatalf("cache holds %d curves, want %d", c.Len(), len(keys))
		}
		runtime.KeepAlive(c)
		runs[i] = float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(keys))
	}
	sort.Float64s(runs[:])
	return runs[1]
}

// singleModelKeys is one key per job under the default model, and
// predictorKeys one per job under each of the four predictors: 4,096-curve
// streams when given 4,096 and 1,024 of the benchmark's kind of ad-hoc
// jobs.
func singleModelKeys(jobs []*scopesim.Job) []cacheKey {
	keys := make([]cacheKey, 0, len(jobs))
	for _, job := range jobs {
		keys = append(keys, encodeKey("", job))
	}
	return keys
}

func predictorKeys(jobs []*scopesim.Job) []cacheKey {
	keys := make([]cacheKey, 0, len(jobs)*len(predictorNames))
	for _, job := range jobs {
		for _, m := range predictorNames {
			keys = append(keys, encodeKey(m, job))
		}
	}
	return keys
}

// parentSingleModelBytes is the retained heap per single-model curve that
// retainedPerCurve measured before payloads were shared (every key stored
// whole; amd64, go1.24), the figure single-model traffic must stay near.
const parentSingleModelBytes = 1666

// TestCurveCacheSharesPayload is the memory gate: curves of one job under
// the four predictors share its payload, so they cost at most 40% of a
// single-model curve, and single-model traffic costs at most 32 B a curve
// more than before sharing.
func TestCurveCacheSharesPayload(t *testing.T) {
	jobs := adhocJobs(4096)
	single := retainedPerCurve(t, singleModelKeys(jobs))
	shared := retainedPerCurve(t, predictorKeys(jobs[:1024]))
	t.Logf("retained per curve: %.0f B single-model, %.0f B across four predictors (%.0f%%)",
		single, shared, 100*shared/single)
	if shared > 0.4*single {
		t.Errorf("four-predictor curve retains %.0f B, over 40%% of the single-model %.0f B", shared, single)
	}
	if runtime.GOARCH == "amd64" && single > parentSingleModelBytes+32 {
		t.Errorf("single-model curve retains %.0f B, over %d + 32 B", single, parentSingleModelBytes)
	}

	// Evicting one predictor's curve leaves the job's other curves
	// resident, and the size gauge counts curves, not jobs.
	reg := obs.NewRegistry()
	c := newCurveCache(len(predictorNames), newCacheMetrics(reg))
	var keys []cacheKey
	for _, m := range predictorNames {
		keys = append(keys, encodeKey(m, jobs[0]))
		cachePut(c, keys[len(keys)-1], cachedScore{model: m})
	}
	if size := reg.Gauge(obs.MetricCurveCacheSize).Value(); size != int64(len(predictorNames)) {
		t.Fatalf("size gauge %d for one job under %d predictors, want %d", size, len(predictorNames), len(predictorNames))
	}
	cachePut(c, encodeKey("", jobs[1]), cachedScore{}) // evicts the NN curve, the LRU one
	if _, hit := cacheGet(c, keys[0]); hit {
		t.Fatal("the evicted NN curve still hits")
	}
	for m, k := range keys[1:] {
		if got, hit := cacheGet(c, k); !hit || got.model != predictorNames[m+1] {
			t.Fatalf("%s curve after its sibling's eviction: hit=%v model %q", predictorNames[m+1], hit, got.model)
		}
	}
	if size := reg.Gauge(obs.MetricCurveCacheSize).Value(); size != int64(len(predictorNames)) {
		t.Fatalf("size gauge %d, want %d curves", size, len(predictorNames))
	}
}

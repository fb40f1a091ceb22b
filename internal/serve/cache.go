package serve

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"sync"
	"sync/atomic"

	"tasq/internal/obs"
	"tasq/internal/pcc"
	"tasq/internal/scopesim"
)

// The serving hot path memoizes fitted curves: predicting a PCC walks the
// boosted trees (or runs a wave simulation) over the ±40% token grid and
// fits a power law, all of which is a pure function of (predictor, job
// content). Production scoring traffic is dominated by recurring jobs —
// the same compiled plan resubmitted on a schedule — so one bounded,
// LRU-evicted cache per loaded model generation turns the steady state
// into a key build plus a map probe.
//
// Correctness rests on three properties:
//
//   - The key covers every input a predictor reads: the requested model
//     name (normalized the way the Mux resolves it), the job's requested
//     tokens (the anchoring reference), its template (AutoToken's group
//     signature), the full operator set with compile-time estimates (the
//     featurization of Table 1) and the stage DAG (the simulator
//     baselines execute it). Identity fields predictors never consume —
//     job ID, virtual cluster, submit time — are deliberately excluded so
//     recurring resubmissions of one plan share an entry. Lookup is by
//     exact comparison of both halves of the key, never by hash alone, so
//     collisions are impossible by construction.
//   - The cache lives inside the activeModel swapped through the server's
//     atomic pointer: a hot reload installs a new generation with a
//     fresh, empty cache in one atomic store, so a new generation can
//     never observe — let alone serve — a predecessor's curves.
//   - Only successful, Valid() curves are stored, after the job passed
//     full validation; a cache hit therefore proves an identical job
//     already validated, letting the hit path skip re-validation.
//
// The key has two halves: the model prefix and the job payload, the
// feature encoding that makes up almost all of its bytes. The paper's
// predictors are asked about the same compiled job (ad-hoc traffic names
// NN, GNN and both XGBoost variants in turn), so a shard's map is keyed by
// the payload alone and the job's curves hang off it as a chain of
// sibling entries that share one copy of the payload. Every curve is
// still its own LRU entry, so capacity bounds curves and eviction order
// is per curve; the payload is freed with the job's last curve.

// DefaultCurveCacheCap is the default bound on memoized curves per loaded
// generation. A job's payload grows with the plan, ~70 bytes an operator:
// a mean of 1,375 B over the benchmark's 2,000-job recurring pool (19
// operators a job), 1,436 B over 4,096 ad-hoc jobs. With its entry, map
// slot and allocation rounding, a single-model curve retains about 1.7 KB
// (1,680 B ad hoc on amd64; 1,666 B when whole keys were stored), so a
// full default cache holds about 7 MB; plans of 60 operators would make
// that ~20 MB. Curves of one job under the four predictors share its
// payload and retain about 500 B each (1,672 B unshared), ~2 MB in all.
const DefaultCurveCacheCap = 4096

// cacheShardCount spreads entries over independently locked shards so
// concurrent scoring on many cores does not serialize on one LRU mutex.
const cacheShardCount = 16

// cachedScore is the memoized outcome of one (model, job) scoring: the
// fitted curve, the canonical name of the predictor that served it, and
// that predictor's pre-resolved tasq_score_total counter (label lookup
// allocates, so the hit path must not repeat it).
type cachedScore struct {
	curve   pcc.Curve
	model   string
	counter *obs.Counter
}

// cacheEntry is one memoized curve and its LRU node; entries are
// intrusive so a hit moves a node without allocating. The entries of one
// job under different models form a sibling chain headed by the entry the
// shard's map points at, and share that job's payload string.
type cacheEntry struct {
	payload    string // the job payload, one copy per job
	prefix     string // the normalized model prefix, terminator included
	val        cachedScore
	prev, next *cacheEntry // LRU order over curves
	sib        *cacheEntry // the job's next curve
}

// cacheShard is one independently locked LRU segment.
type cacheShard struct {
	mu     sync.Mutex
	jobs   map[string]*cacheEntry // payload → the job's first curve
	curves int
	head   *cacheEntry // most recently used
	tail   *cacheEntry // least recently used
}

// cacheMetrics are the obs handles shared by every generation's cache;
// counters accumulate across hot reloads, the gauge follows the current
// cache's entry count.
type cacheMetrics struct {
	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	size      *obs.Gauge
}

// newCacheMetrics registers the curve-cache series on reg.
func newCacheMetrics(reg *obs.Registry) *cacheMetrics {
	reg.SetHelp(obs.MetricCurveCacheHits, "Curve-cache lookups answered from the memoized curve of the serving generation.")
	reg.SetHelp(obs.MetricCurveCacheMisses, "Curve-cache lookups that fell through to the predictor.")
	reg.SetHelp(obs.MetricCurveCacheEvictions, "Curves evicted by the LRU capacity bound.")
	reg.SetHelp(obs.MetricCurveCacheSize, "Curves currently memoized by the serving generation.")
	return &cacheMetrics{
		hits:      reg.Counter(obs.MetricCurveCacheHits),
		misses:    reg.Counter(obs.MetricCurveCacheMisses),
		evictions: reg.Counter(obs.MetricCurveCacheEvictions),
		size:      reg.Gauge(obs.MetricCurveCacheSize),
	}
}

// curveCache is a bounded, sharded LRU of cachedScore keyed by the exact
// encoded (model prefix, job payload) bytes. A nil *curveCache is valid
// and disables memoization.
type curveCache struct {
	shards   []cacheShard
	seed     maphash.Seed
	capShard int
	count    atomic.Int64
	met      *cacheMetrics
}

// newCurveCache builds a cache bounded at roughly capacity curves
// (rounded up to a multiple of the shard count). capacity <= 0 returns
// nil — caching disabled. Small capacities collapse to one shard so the
// bound, and LRU order, are exact where tests exercise eviction.
func newCurveCache(capacity int, met *cacheMetrics) *curveCache {
	if capacity <= 0 {
		return nil
	}
	shards := cacheShardCount
	if capacity < shards {
		shards = 1
	}
	c := &curveCache{
		shards:   make([]cacheShard, shards),
		seed:     maphash.MakeSeed(),
		capShard: (capacity + shards - 1) / shards,
		met:      met,
	}
	for i := range c.shards {
		c.shards[i].jobs = make(map[string]*cacheEntry)
	}
	return c
}

// shardFor picks the shard with the runtime's own (hardware-accelerated)
// byte hash under the cache's random seed. It hashes the job payload
// alone, so all of a job's curves live in one shard. Payloads are full
// feature encodings — over a kilobyte for a typical plan — and every
// get/put hashes one, so this walk sits on the cached-score profile. Only
// shard balance matters here: unlike cluster.KeyHash, which places keys
// on the ring and must agree across processes, the value never leaves the
// cache.
func (c *curveCache) shardFor(payload []byte) *cacheShard {
	return &c.shards[maphash.Bytes(c.seed, payload)%uint64(len(c.shards))]
}

// get returns the memoized score for the exact key, whose first n bytes
// are the model prefix (appendScoreKey's result), refreshing its LRU
// position. The []byte halves are compared as strings without allocating.
func (c *curveCache) get(key []byte, n int) (cachedScore, bool) {
	if c == nil {
		return cachedScore{}, false
	}
	s := c.shardFor(key[n:])
	s.mu.Lock()
	_, e := s.find(key, n)
	if e == nil {
		s.mu.Unlock()
		c.met.misses.Inc()
		return cachedScore{}, false
	}
	s.moveToFront(e)
	val := e.val
	s.mu.Unlock()
	c.met.hits.Inc()
	return val, true
}

// put memoizes a score for the key split as in get, evicting the shard's
// least recently used curve beyond capacity. A curve for a job the shard
// already holds under another model shares that job's payload. Racing
// puts for the same key keep the first value (both computed the same pure
// function, so either is correct).
func (c *curveCache) put(key []byte, n int, val cachedScore) {
	if c == nil {
		return
	}
	s := c.shardFor(key[n:])
	s.mu.Lock()
	first, e := s.find(key, n)
	if e != nil {
		s.moveToFront(e)
		s.mu.Unlock()
		return
	}
	e = &cacheEntry{prefix: string(key[:n]), val: val}
	if first == nil {
		e.payload = string(key[n:])
		s.jobs[e.payload] = e
	} else {
		e.payload = first.payload
		e.sib, first.sib = first.sib, e
	}
	s.pushFront(e)
	s.curves++
	var evicted bool
	if s.curves > c.capShard {
		s.evict(s.tail)
		evicted = true
	}
	s.mu.Unlock()
	if evicted {
		c.met.evictions.Inc()
		c.met.size.Set(c.count.Load())
	} else {
		c.met.size.Set(c.count.Add(1))
	}
}

// Len reports the total curves held (tests and the size gauge).
func (c *curveCache) Len() int {
	if c == nil {
		return 0
	}
	return int(c.count.Load())
}

// find returns the job's first curve and the curve the key names (nil
// when the shard holds none), the key split as in get.
func (s *cacheShard) find(key []byte, n int) (first, e *cacheEntry) {
	first = s.jobs[string(key[n:])]
	for e = first; e != nil; e = e.sib {
		if e.prefix == string(key[:n]) {
			break
		}
	}
	return first, e
}

// evict drops one curve, and with the job's last curve its map key.
func (s *cacheShard) evict(e *cacheEntry) {
	s.unlink(e)
	s.curves--
	first := s.jobs[e.payload]
	switch {
	case first != e:
		p := first
		for p.sib != e {
			p = p.sib
		}
		p.sib = e.sib
	case e.sib != nil:
		s.jobs[e.payload] = e.sib
	default:
		delete(s.jobs, e.payload)
	}
}

func (s *cacheShard) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *cacheShard) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *cacheShard) moveToFront(e *cacheEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// keyBuf is a pooled scratch buffer for encoding cache keys; steady-state
// scoring builds every key into recycled backing arrays. A fresh buffer
// holds 2 KiB, above the mean key (1,375 B recurring, 1,511 B ad hoc in
// the benchmark's pools), so a refill after a GC empties the pool does not
// grow and copy it on first use.
type keyBuf struct{ b []byte }

var keyBufPool = sync.Pool{
	New: func() any { return &keyBuf{b: make([]byte, 0, 2048)} },
}

func getKeyBuf() *keyBuf { return keyBufPool.Get().(*keyBuf) }

func putKeyBuf(kb *keyBuf) {
	kb.b = kb.b[:0]
	keyBufPool.Put(kb)
}

// appendScoreKey encodes everything a predictor may read from the request
// into the empty kb: the model prefix (the normalized model name and a
// terminating 0), then the job payload, the job's curve-relevant content.
// It returns the prefix length n: kb.b[:n] is the prefix and kb.b[n:] the
// payload. The cache splits the key there rather than at the first 0
// byte, which a model name may contain. Varints separate counts from
// payloads, so the payload encoding is prefix-free and two distinct jobs
// can never encode to the same bytes.
func appendScoreKey(kb *keyBuf, modelName string, job *scopesim.Job) int {
	b := kb.b
	// Model name, normalized like the Mux resolves it (case, space, dash
	// and underscore insensitive) so "xgboost-pl" and "XGBoost PL" share
	// one entry.
	for i := 0; i < len(modelName); i++ {
		ch := modelName[i]
		switch {
		case ch >= 'A' && ch <= 'Z':
			b = append(b, ch+'a'-'A')
		case ch == ' ' || ch == '-' || ch == '_':
		default:
			b = append(b, ch)
		}
	}
	b = append(b, 0)
	n := len(b)

	b = appendVarint(b, int64(job.RequestedTokens))
	b = appendUvarint(b, uint64(len(job.Template)))
	b = append(b, job.Template...)

	// Operator and stage IDs carry no feature signal (Validate pins them
	// to slice positions), but keying them keeps the 400 contract exact:
	// every stored key passed validation, so a job violating any Validate
	// invariant — misnumbered IDs included — can never hit and always
	// reaches the slow path's Validate call.
	b = appendUvarint(b, uint64(len(job.Operators)))
	for i := range job.Operators {
		op := &job.Operators[i]
		b = appendVarint(b, int64(op.ID))
		b = appendVarint(b, int64(op.Kind))
		b = appendVarint(b, int64(op.Partitioning))
		b = appendVarint(b, int64(op.Stage))
		b = appendUvarint(b, uint64(len(op.Children)))
		for _, c := range op.Children {
			b = appendVarint(b, int64(c))
		}
		// The compile-time estimates, every metric features.go reads.
		b = appendFloat(b, op.Est.OutputCardinality)
		b = appendFloat(b, op.Est.LeafInputCardinality)
		b = appendFloat(b, op.Est.ChildrenInputCardinality)
		b = appendFloat(b, op.Est.AvgRowLength)
		b = appendFloat(b, op.Est.SubtreeCost)
		b = appendFloat(b, op.Est.ExclusiveCost)
		b = appendFloat(b, op.Est.TotalCost)
		b = appendVarint(b, int64(op.Est.NumPartitions))
		b = appendVarint(b, int64(op.Est.NumPartitioningColumns))
		b = appendVarint(b, int64(op.Est.NumSortColumns))
	}

	// No served predictor reads the stage DAG, but Validate checks it,
	// so it stays keyed for the same 400 contract as the IDs above.
	b = appendUvarint(b, uint64(len(job.Stages)))
	for i := range job.Stages {
		st := &job.Stages[i]
		b = appendVarint(b, int64(st.ID))
		b = appendVarint(b, int64(st.Tasks))
		b = appendVarint(b, int64(st.TaskSeconds))
		b = appendUvarint(b, uint64(len(st.Deps)))
		for _, d := range st.Deps {
			b = appendVarint(b, int64(d))
		}
		b = appendUvarint(b, uint64(len(st.Operators)))
		for _, o := range st.Operators {
			b = appendVarint(b, int64(o))
		}
	}
	kb.b = b
	return n
}

// appendUvarint is binary.AppendUvarint with the one-byte case (operator
// kinds, small counts and IDs: most of a key's integers) inlined ahead of
// the general loop. The bytes are binary's, so stored keys, RouteKey and
// ring placement are what they always were.
func appendUvarint(b []byte, x uint64) []byte {
	if x < 0x80 {
		return append(b, byte(x))
	}
	return binary.AppendUvarint(b, x)
}

// appendVarint is binary.AppendVarint (zig-zag, then appendUvarint).
func appendVarint(b []byte, x int64) []byte {
	ux := uint64(x) << 1
	if x < 0 {
		ux = ^ux
	}
	return appendUvarint(b, ux)
}

// appendFloat encodes a float64 by its IEEE bits (exact identity; NaN
// payloads distinct, which only costs a duplicate entry, never a wrong
// answer).
func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

package main

// The measurement protocol every workload shares: fixed windows, the VM's
// steal counter read at every window edge, and the fast end of the windows
// the hypervisor left alone. Nothing here imports the code under test.

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// quietSteal is the largest share of window × nproc the hypervisor may
	// take from a window that still counts as quiet.
	quietSteal = 0.02
	// minQuiet is how many windows the estimators need; with fewer quiet
	// ones the run falls back to the minQuiet least-stolen and says so.
	minQuiet = 8
	// A run times at least setupCycles cold set-ups and reports the
	// fastest, because interference only ever adds time. Cheap set-ups
	// repeat until they have filled the run's setupFill (one second outside
	// the tests), up to setupCyclesMax, so that a 10 ms set-up gets as
	// steady a floor as a 300 ms one.
	setupCycles    = 7
	setupCyclesMax = 50
	// userHZ is the unit of /proc/stat and /proc/<pid>/stat, fixed at 100
	// for user space on every Linux architecture.
	userHZ = 100
)

// window is one measurement interval: what was done in it and what the
// host did to it.
type window struct {
	dur time.Duration
	// steal is the share of dur × nproc the hypervisor took; negative
	// when the kernel reports no steal column.
	steal float64
	// lat holds one entry per completed operation, in milliseconds.
	lat []float64
	// cpu is the CPU time of the process doing the work, clientCPU that of
	// the driver (the same number for the in-process workloads).
	cpu, clientCPU time.Duration
	// rssMB is the largest resident set that process was seen with during
	// the window.
	rssMB float64
}

// percentile returns the p-th quantile (0..1) of an ascending slice by
// linear interpolation between order statistics; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// median sorts xs in place and returns its middle.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return percentile(xs, 0.5)
}

// fastest runs cycle at least setupCycles times, and on until the cycles
// sum to fill or number setupCyclesMax, and returns the shortest.
func fastest(fill time.Duration, cycle func() (time.Duration, error)) (time.Duration, error) {
	var best, total time.Duration
	for i := 0; i < setupCycles || (total < fill && i < setupCyclesMax); i++ {
		d, err := cycle()
		if err != nil {
			return 0, err
		}
		if i == 0 || d < best {
			best = d
		}
		total += d
	}
	return best, nil
}

// quietWindows applies the steal gate: used are the windows the estimators
// read, quiet how many windows passed the gate. With no steal column every
// window passes. When fewer than minQuiet pass (and not all of a short run),
// used is the minQuiet least-stolen instead and the run is noisy.
func quietWindows(ws []window) (used []window, quiet int, noisy bool) {
	for _, w := range ws {
		if w.steal <= quietSteal {
			used = append(used, w)
		}
	}
	quiet = len(used)
	if quiet >= minQuiet || quiet == len(ws) {
		return used, quiet, false
	}
	byStealth := append([]window(nil), ws...)
	sort.SliceStable(byStealth, func(i, j int) bool { return byStealth[i].steal < byStealth[j].steal })
	return byStealth[:min(minQuiet, len(byStealth))], quiet, true
}

// summary is what the gate and the estimators make of a run's windows.
type summary struct {
	windows, quiet int
	noisy          bool
	stealShare     float64 // mean over all windows; 0 when not reported
	jobsPerS       float64
	p50ms, p90ms   float64
	cpuMsPerJob    float64
	clientCPUMs    float64
	peakRSSMB      float64
}

// fastShare picks, among the quiet windows, the value that the fastest
// tenth of them reach. Interference only ever adds time, and on this host it
// comes without steal too (a neighbour slows whole seconds by 15%), so the
// median of a run's windows drifts with them. Over eight runs per workload
// the windows' median throughput spread by 3-9% and this value by 1.5-7%; in
// a rough half hour both spread by 8-10% (README, "Bounds").
const fastShare = 0.10

// fast returns the fastShare quantile from the fast end of xs, which is the
// high end for a rate and the low end for a time; it sorts xs in place.
func fast(xs []float64, higherIsFaster bool) float64 {
	sort.Float64s(xs)
	if higherIsFaster {
		return percentile(xs, 1-fastShare)
	}
	return percentile(xs, fastShare)
}

// summarize reduces windows to the end-to-end metrics: each timing is the
// fast value over quiet windows of that window's own throughput, p50, p90
// or CPU per job; the resident set is their median.
func summarize(ws []window, jobsPerOp int) summary {
	used, quiet, noisy := quietWindows(ws)
	s := summary{windows: len(ws), quiet: quiet, noisy: noisy}
	for _, w := range ws {
		if w.steal > 0 {
			s.stealShare += w.steal / float64(len(ws))
		}
	}
	var rate, p50, p90, cpu, ccpu, rss []float64
	for _, w := range used {
		if len(w.lat) == 0 {
			continue
		}
		jobs := float64(len(w.lat) * jobsPerOp)
		rate = append(rate, jobs/w.dur.Seconds())
		lat := append([]float64(nil), w.lat...)
		sort.Float64s(lat)
		p50 = append(p50, percentile(lat, 0.5))
		p90 = append(p90, percentile(lat, 0.9))
		cpu = append(cpu, float64(w.cpu)/float64(time.Millisecond)/jobs)
		ccpu = append(ccpu, float64(w.clientCPU)/float64(time.Millisecond)/jobs)
		rss = append(rss, w.rssMB)
	}
	s.jobsPerS, s.p50ms, s.p90ms = fast(rate, true), fast(p50, false), fast(p90, false)
	s.cpuMsPerJob, s.clientCPUMs = fast(cpu, false), fast(ccpu, false)
	s.peakRSSMB = median(rss)
	return s
}

// host samples the process doing the work: pid 0 is the driver itself.
type host struct {
	pid int
	rss *rssWatch
}

func watchHost(pid int) *host { return &host{pid: pid, rss: watchRSS(pid)} }

func (h *host) close() { h.rss.close() }

// edge is what is read where one window ends and the next begins.
type edge struct {
	at            time.Time
	steal         uint64
	stealOK       bool
	cpu, selfCPUt time.Duration
	rssMB         float64 // peak since the previous edge
}

func (h *host) read() edge {
	e := edge{at: time.Now(), selfCPUt: selfCPU(), rssMB: h.rss.take()}
	e.steal, e.stealOK = readSteal()
	e.cpu = e.selfCPUt
	if h.pid != 0 {
		e.cpu = procCPU(h.pid)
	}
	return e
}

// between turns two edges into a window without its latencies.
func between(a, b edge) window {
	w := window{dur: b.at.Sub(a.at), steal: -1, cpu: b.cpu - a.cpu, clientCPU: b.selfCPUt - a.selfCPUt, rssMB: b.rssMB}
	if a.stealOK && b.stealOK && w.dur > 0 {
		w.steal = float64(b.steal-a.steal) / userHZ / (w.dur.Seconds() * float64(runtime.NumCPU()))
	}
	return w
}

// rssPoll is how often a watched process's resident set is read. The heap
// of the in-process workloads grows over hundreds of milliseconds, and a
// read costs about 10 us.
const rssPoll = 20 * time.Millisecond

// rssWatch polls a process's resident set, so that every window has a peak
// of its own. VmHWM only ever rises: one collector cycle that falls behind
// its mutators sets it for the rest of the run, and between runs of the
// same code it ranged over 40-67 MB on offline_pipeline.
type rssWatch struct {
	statm      string
	mu         sync.Mutex
	peak       float64
	stop, done chan struct{}
}

func watchRSS(pid int) *rssWatch {
	r := &rssWatch{statm: "/proc/self/statm", stop: make(chan struct{}), done: make(chan struct{})}
	if pid != 0 {
		r.statm = fmt.Sprintf("/proc/%d/statm", pid)
	}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(rssPoll)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				r.sample()
			}
		}
	}()
	return r
}

func (r *rssWatch) sample() {
	b, err := os.ReadFile(r.statm)
	if err != nil {
		return
	}
	mb := parseStatmMB(string(b))
	r.mu.Lock()
	r.peak = max(r.peak, mb)
	r.mu.Unlock()
}

// take returns the largest resident set seen since the previous take, in
// MB, the present one included.
func (r *rssWatch) take() float64 {
	r.sample()
	r.mu.Lock()
	defer r.mu.Unlock()
	peak := r.peak
	r.peak = 0
	return peak
}

func (r *rssWatch) close() {
	close(r.stop)
	<-r.done
}

// parseStatmMB reads the resident page count, the second field of
// /proc/<pid>/statm.
func parseStatmMB(statm string) float64 {
	f := strings.Fields(statm)
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// loadConfig shapes one closed-loop run.
type loadConfig struct {
	workers     int
	warm, timed int // window counts; the warm ones are discarded
	window      time.Duration
	pid         int // the process doing the work; 0 = this one
}

// loadStats counts every operation the loop sent, warm-up included.
type loadStats struct{ attempted, failed int }

// runWindows drives op from cfg.workers goroutines, each sending its next
// operation only when the previous one has answered. Operations take
// consecutive indices from one shared counter, so the input order does not
// depend on how the workers interleave. op reports its own latency: the
// part of the call its caller would wait for.
func runWindows(cfg loadConfig, op func(worker int, i int64) (time.Duration, error)) ([]window, loadStats) {
	total := cfg.warm + cfg.timed
	var (
		next     atomic.Int64
		cur      atomic.Int64 // index of the window now open; total = stop
		failed   atomic.Int64
		wg       sync.WaitGroup
		lat      = make([][][]float64, cfg.workers)
		firstErr atomic.Pointer[error]
	)
	for w := 0; w < cfg.workers; w++ {
		lat[w] = make([][]float64, total)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				win := cur.Load()
				if win >= int64(total) {
					return
				}
				d, err := op(w, next.Add(1)-1)
				if err != nil {
					failed.Add(1)
					firstErr.CompareAndSwap(nil, &err)
					continue
				}
				// An operation belongs to the window it completes in.
				if win = cur.Load(); win < int64(total) {
					lat[w][win] = append(lat[w][win], float64(d)/float64(time.Millisecond))
				}
			}
		}(w)
	}
	h := watchHost(cfg.pid)
	edges := make([]edge, 0, total+1)
	edges = append(edges, h.read())
	for i := 1; i <= total; i++ {
		time.Sleep(time.Until(edges[0].at.Add(time.Duration(i) * cfg.window)))
		edges = append(edges, h.read())
		cur.Store(int64(i))
	}
	h.close()
	wg.Wait()
	if p := firstErr.Load(); p != nil {
		fmt.Fprintln(os.Stderr, "bench: first failed operation:", *p)
	}
	ws := make([]window, 0, cfg.timed)
	for i := cfg.warm; i < total; i++ {
		w := between(edges[i], edges[i+1])
		for k := range lat {
			w.lat = append(w.lat, lat[k][i]...)
		}
		ws = append(ws, w)
	}
	return ws, loadStats{attempted: int(next.Load()), failed: int(failed.Load())}
}

// readSteal returns the VM-wide steal counter in userHZ ticks.
func readSteal() (uint64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	return parseSteal(string(b))
}

// parseSteal picks the eighth value of /proc/stat's aggregate "cpu" line;
// kernels before 2.6.11, and non-Linux hosts, have none.
func parseSteal(stat string) (uint64, bool) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseUint(f[8], 10, 64)
	return v, err == nil
}

// procCPU returns utime+stime of another process.
func procCPU(pid int) time.Duration {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	return parseProcCPU(string(b))
}

// parseProcCPU reads fields 14 and 15 of /proc/<pid>/stat; the command
// name in field 2 may itself hold spaces, so counting starts after its
// closing parenthesis.
func parseProcCPU(stat string) time.Duration {
	i := strings.LastIndexByte(stat, ')')
	f := strings.Fields(stat[i+1:])
	if i < 0 || len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseUint(f[11], 10, 64)
	st, _ := strconv.ParseUint(f[12], 10, 64)
	return time.Duration(ut+st) * time.Second / userHZ
}

// selfCPU returns the driver's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

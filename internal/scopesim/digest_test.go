package scopesim_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"strings"
	"testing"

	"tasq/internal/flight"
	"tasq/internal/scopesim"
	"tasq/internal/workload"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/executor_digests.txt from the executor in this tree")

const executorDigestFile = "testdata/executor_digests.txt"

// executorDigestHeader names where the table came from. It was written by
// this test with -update on the commit below, the parent of the change that
// moved the executor onto internal/eventq, and verified there.
const executorDigestHeader = `# run percent then the SHA-256 of every skyline, over 256
# workload.DefaultConfig(1) jobs at percent of their requested tokens;
# run is "run" (Executor.Run) or "noisy-<seed>" (RunNoisy, flight's noise)
# generated by TestExecutorMatchesParentDigest -update on commit
# b781ba608d2566d6fd7fcde553becbab541b4425 and re-verified there
`

const digestJobs = 256

var (
	digestPercents = []int{100, 80, 60, 20}
	digestSeeds    = []int64{1, 2, 3}
)

// executorDigests runs every digest job at every percent, deterministically
// and under each seed's noise, and returns one "run percent sha" line per
// pass. An execution error is folded in as its message, so a change in what
// fails moves the digest too.
func executorDigests(t *testing.T) []string {
	jobs := workload.New(workload.DefaultConfig(1)).Workload(digestJobs)
	noise := flight.DefaultConfig(1).Noise
	var ex scopesim.Executor
	var lines []string
	pass := func(name string, pct int, run func(*scopesim.Job, int) (*scopesim.Execution, error)) {
		h := sha256.New()
		for _, job := range jobs {
			tokens := max(1, job.RequestedTokens*pct/100)
			res, err := run(job, tokens)
			foldExecution(h, job.ID, tokens, res, err)
		}
		lines = append(lines, fmt.Sprintf("%s %d %x", name, pct, h.Sum(nil)))
	}
	for _, pct := range digestPercents {
		pass("run", pct, ex.Run)
	}
	for _, seed := range digestSeeds {
		for _, pct := range digestPercents {
			rng := rand.New(rand.NewSource(seed))
			pass(fmt.Sprintf("noisy-%d", seed), pct, func(job *scopesim.Job, tokens int) (*scopesim.Execution, error) {
				return ex.RunNoisy(job, tokens, rng, noise)
			})
		}
	}
	if len(jobs) != digestJobs {
		t.Fatalf("workload gave %d jobs, want %d", len(jobs), digestJobs)
	}
	return lines
}

func foldExecution(h hash.Hash, id string, tokens int, res *scopesim.Execution, err error) {
	var buf [8]byte
	word := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	h.Write([]byte(id))
	word(tokens)
	if err != nil {
		h.Write([]byte("error: " + err.Error()))
		return
	}
	word(res.TokensAllocated)
	word(res.RuntimeSeconds)
	word(len(res.Skyline))
	for _, v := range res.Skyline {
		word(v)
	}
}

// TestExecutorMatchesParentDigest holds Run and RunNoisy to skylines
// recorded at the parent commit (see executorDigestHeader), so a change to
// the executor's event loop that reorders a single task shows up as a
// digest mismatch naming the pass.
func TestExecutorMatchesParentDigest(t *testing.T) {
	got := executorDigests(t)
	if *updateDigests {
		if err := os.WriteFile(executorDigestFile, []byte(executorDigestHeader+strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(executorDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s holds %d rows, want %d", executorDigestFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("got %q, parent had %q", got[i], want[i])
		}
	}
}

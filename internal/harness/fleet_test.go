package harness

import (
	"fmt"
	"strings"
	"testing"

	"tasq/internal/faults"
	"tasq/internal/registry"
)

// fleetProfile fires enough kills and partitions per run to exercise
// drain, failover, re-admission and partition healing within a short
// storm.
func fleetProfile() faults.Profile {
	return faults.Profile{
		ReplicaKillRate:      0.25,
		ReplicaPartitionRate: 0.30,
	}
}

func fleetConfig(t *testing.T, seed int64) FleetConfig {
	cfg := FleetConfig{
		Seed:    seed,
		Dir:     t.TempDir(),
		Profile: fleetProfile(),
		Logf:    t.Logf,
	}
	if testing.Short() {
		cfg.Steps = 10
		cfg.Workers = 4
	}
	return cfg
}

// TestFleetChaos is the headline cluster-mode suite: at each fixed seed
// the run itself enforces every invariant — exact per-member counter
// reconciliation across incarnations (including the shed-reason
// breakdown across drain-restart cycles), no lost scores, the bounded
// churn error rate, the mid-storm promotion wave, full recovery on the
// promoted generation, and minimal key movement. The test then asserts
// the run was a real storm, not a quiet walk.
func TestFleetChaos(t *testing.T) {
	for _, seed := range []int64{7, 21, 1234} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			res, err := RunFleet(fleetConfig(t, seed))
			if err != nil {
				t.Fatal(err)
			}
			if res.Kills == 0 {
				t.Error("storm fired no kills — seed exercises nothing")
			}
			if res.Partitions == 0 {
				t.Error("storm fired no partitions — seed exercises nothing")
			}
			if res.Ops == 0 || res.Attempts == 0 {
				t.Fatalf("no traffic: ops=%d attempts=%d", res.Ops, res.Attempts)
			}
			if res.Intended400 == 0 {
				t.Error("no intended 400s observed")
			}
			if res.Recovered == 0 {
				t.Error("no recovery scores")
			}
			if res.Wave == nil || !res.Wave.Promoted() {
				t.Fatalf("mid-storm wave did not promote: %+v", res.Wave)
			}
			if res.Wave.Outcome != registry.WaveStateComplete {
				t.Fatalf("wave outcome %q", res.Wave.Outcome)
			}
			// Churn must have forced real failovers and health churn at
			// least once across the storm (routing always happens).
			var routed int64
			for _, n := range res.Stats.Routed {
				routed += n
			}
			if routed == 0 {
				t.Error("balancer routed nothing")
			}
			if res.Stats.Ejections == 0 || res.Stats.Readmissions == 0 {
				t.Errorf("no health churn: %+v", res.Stats)
			}
			// The published fault trace matches what actually fired.
			for _, site := range []string{faults.SiteReplicaKill, faults.SiteReplicaPartition} {
				trace, ok := res.FaultTrace[site]
				if !ok {
					t.Fatalf("no fault trace for %s", site)
				}
				fired := int64(strings.Count(trace[:res.StepsRun], "1"))
				if got := res.FiredBySite[site].Fired; got != fired {
					t.Errorf("%s: trace says %d fires in %d steps, injector recorded %d",
						site, fired, res.StepsRun, got)
				}
			}
		})
	}
}

// TestFleetReproducibility runs the same seed twice in fresh directories
// and demands the identical event log — every drain, kill, restart,
// partition, heal and wave decision at the same step against the same
// member — plus identical fault traces and wave adoption order.
func TestFleetReproducibility(t *testing.T) {
	a, err := RunFleet(fleetConfig(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFleet(fleetConfig(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d\n a: %v\n b: %v",
			len(a.Events), len(b.Events), a.Events, b.Events)
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	for site, trace := range a.FaultTrace {
		if b.FaultTrace[site] != trace {
			t.Fatalf("fault trace for %s differs", site)
		}
	}
	if fmt.Sprint(a.Wave.Adopted) != fmt.Sprint(b.Wave.Adopted) ||
		a.Wave.Outcome != b.Wave.Outcome {
		t.Fatalf("wave outcomes differ: %+v vs %+v", a.Wave, b.Wave)
	}
	if a.Kills != b.Kills || a.Partitions != b.Partitions {
		t.Fatalf("disruption counts differ: %d/%d vs %d/%d",
			a.Kills, a.Partitions, b.Kills, b.Partitions)
	}
	for _, res := range []*FleetResult{a, b} {
		checkSoakDigest(t, "fleet seed=7 "+runMode(), res.Events, res.FaultTrace, res.Wave.Adopted,
			res.Wave.Outcome, res.Kills, res.Partitions, res.StepsRun, res.Recovered)
	}
}

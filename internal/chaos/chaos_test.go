package chaos

import (
	"strings"
	"testing"
)

// TestScenarioConverges runs single seeded scenarios end to end: faults
// fire (admission faults among them: they drop fed transactions at one
// node, and admission shapes block content, never block execution), the
// cluster heals, and every node ends on identical per-epoch roots. Each
// seed is a subtest so a failure names its replay seed.
func TestScenarioConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node chaos scenario")
	}
	for _, seed := range []int64{1, 2, 3} {
		t.Run(strings.Join([]string{"seed", string(rune('0' + seed))}, ""), func(t *testing.T) {
			res, err := Run(Config{Seed: seed, Dir: t.TempDir()})
			if err != nil {
				t.Fatalf("harness: %v", err)
			}
			if res.Failure != nil {
				for _, ev := range res.Events {
					t.Log(ev)
				}
				t.Fatal(res.Failure.Error())
			}
			if res.Epochs < minEpochs {
				t.Fatalf("only %d epochs processed", res.Epochs)
			}
			if res.CrashRestarts < 1 || res.Partitions < 1 || res.StorageErrors < 1 || res.Stalls < 1 || res.MempoolFaults < 1 {
				t.Fatalf("mandatory faults missing: %d crashes, %d partitions, %d storage errors, %d stalls, %d mempool faults\n%s",
					res.CrashRestarts, res.Partitions, res.StorageErrors, res.Stalls, res.MempoolFaults,
					strings.Join(res.Events, "\n"))
			}
		})
	}
}

// TestScenarioReplaysDeterministically: the same seed must produce the
// same fault schedule, the same event log and the same converged chain —
// the property the replay CLI relies on. Blocks carry a logical clock, so
// the blocks mined, their chains and the epochs they close follow from
// the seed; a difference here means nondeterminism crept back into block
// production or the fault schedule.
func TestScenarioReplaysDeterministically(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node chaos scenario")
	}
	a, err := Run(Config{Seed: 7, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Seed: 7, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if a.Failure != nil || b.Failure != nil {
		t.Fatalf("seed 7 failed: %v / %v", a.Failure, b.Failure)
	}
	type summary struct {
		Epochs                                             uint64
		Blocks, CrashRestarts, Partitions, Stalls, Mempool int
	}
	sa := summary{a.Epochs, a.Blocks, a.CrashRestarts, a.Partitions, a.Stalls, a.MempoolFaults}
	sb := summary{b.Epochs, b.Blocks, b.CrashRestarts, b.Partitions, b.Stalls, b.MempoolFaults}
	if sa != sb {
		t.Fatalf("identical seeds diverged: %+v vs %+v", sa, sb)
	}
	if got, want := strings.Join(b.Events, "\n"), strings.Join(a.Events, "\n"); got != want {
		t.Fatalf("event logs diverged between identical seeds:\n--- first run\n%s\n--- second run\n%s", want, got)
	}
}

// TestSweepAggregates runs a tiny sweep through the CI entry point.
func TestSweepAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node chaos sweep")
	}
	rep, err := Sweep(SweepConfig{
		StartSeed: 100,
		Seeds:     2,
		Scenario:  Config{Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		for _, f := range rep.Failures {
			t.Error(f.Error())
		}
		t.FailNow()
	}
	if rep.Trials != 2 || rep.Epochs == 0 {
		t.Fatalf("sweep under-reported: %s", rep.Summary())
	}
}

// TestScenarioMempoolConverges runs a scenario on a seed outside
// TestScenarioConverges's set: miners front the admission-controlled
// pool, admission faults drop fed transactions at one node, and
// convergence must hold regardless — admission shapes block content,
// never block execution.
func TestScenarioMempoolConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node chaos scenario")
	}
	res, err := Run(Config{Seed: 5, Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	if res.Failure != nil {
		for _, ev := range res.Events {
			t.Log(ev)
		}
		t.Fatal(res.Failure.Error())
	}
	if res.MempoolFaults < 1 {
		t.Fatalf("scenario armed no admission faults\n%s", strings.Join(res.Events, "\n"))
	}
	if res.Epochs < minEpochs {
		t.Fatalf("only %d epochs processed", res.Epochs)
	}
}

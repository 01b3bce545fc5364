package node

import (
	"context"
	"testing"
	"time"

	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/metrics"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/workload"
)

// mineAhead mines and submits `epochs` complete epochs WITHOUT processing
// them, so later processing sees a backlog — the shape the cross-epoch
// prevalidation overlap needs.
func mineAhead(t *testing.T, n *Node, m *Miner, epochs uint64) {
	t.Helper()
	ctx := context.Background()
	for i := 0; !n.Ledger().EpochReady(epochs, 0); i++ {
		if i > 10_000 {
			t.Fatal("epochs refuse to complete")
		}
		b, err := m.Mine(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.SubmitBlock(b); err != nil && !isStale(err) {
			t.Fatal(err)
		}
	}
}

// TestStagesRecordedConcurrent: the concurrent pipeline reports its named
// stages (including the MVCC read-set prefetch kick before commit), the
// epoch total is the sum of the stage durations, a lookup by name returns
// each stage's own record, and task counts match the epoch.
func TestStagesRecordedConcurrent(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 11, Accounts: 200, Skew: 0.3, InitialBalance: 1_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(150)
	cfg := testConfig(2, core.MustNewScheduler(core.DefaultConfig()))
	cfg.GenesisWrites = genesisFor(t, gen, txs)
	n, err := New("stages", kvstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	miner := NewMiner(n, types.AddressFromUint64(9), 75)
	miner.AddTxs(txs)
	growEpochs(t, n, []*Miner{miner}, 1)

	epochs := n.Metrics().Epochs()
	if len(epochs) == 0 {
		t.Fatal("no epochs recorded")
	}
	for _, es := range epochs {
		want := []string{"validate", "execute", "schedule", "prefetch", "commit"}
		if len(es.Stages) != len(want) {
			t.Fatalf("epoch %d: %d stages recorded, want %d", es.Epoch, len(es.Stages), len(want))
		}
		for i, name := range want {
			if es.Stages[i].Name != name {
				t.Fatalf("epoch %d stage %d = %q, want %q", es.Epoch, i, es.Stages[i].Name, name)
			}
		}
		var sum time.Duration
		for _, st := range es.Stages {
			sum += st.Duration
			if got := es.Stage(st.Name); got != st {
				t.Fatalf("epoch %d: Stage(%q) = %+v, want %+v", es.Epoch, st.Name, got, st)
			}
		}
		if es.Total() != sum {
			t.Fatalf("epoch %d: Total() = %v, stage durations sum to %v", es.Epoch, es.Total(), sum)
		}
		if es.Stages[1].Tasks != es.Txs {
			t.Fatalf("epoch %d: execute stage saw %d tasks, epoch has %d txs", es.Epoch, es.Stages[1].Tasks, es.Txs)
		}
		if es.Txs > 0 && es.Stages[1].Busy <= 0 {
			t.Fatalf("epoch %d: execute stage recorded no busy time", es.Epoch)
		}
		if es.Stages[1].Workers < 1 || es.Stages[1].Workers > cfg.Workers {
			t.Fatalf("epoch %d: execute stage workers = %d", es.Epoch, es.Stages[1].Workers)
		}
	}

	// The aggregated summary carries the same stage names.
	sum := n.Metrics().Summarize()
	if len(sum.Stages) != 5 || sum.Stages[0].Name != "validate" {
		t.Fatalf("summary stages: %+v", sum.Stages)
	}
}

// TestStagesRecordedSerial: the serial baseline runs validate+serial and
// reports the serial stage as itself — no synthetic execute/commit split.
func TestStagesRecordedSerial(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 12, Accounts: 100, Skew: 0, InitialBalance: 1_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(40)
	cfg := testConfig(1, nil) // nil scheduler selects the serial baseline
	cfg.VerifySchedules = false
	cfg.GenesisWrites = genesisFor(t, gen, txs)
	n, err := New("serial-stages", kvstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	miner := NewMiner(n, types.AddressFromUint64(2), 40)
	miner.AddTxs(txs)
	growEpochs(t, n, []*Miner{miner}, 1)

	es := n.Metrics().Epochs()[0]
	if len(es.Stages) != 2 || es.Stages[0].Name != "validate" || es.Stages[1].Name != "serial" {
		t.Fatalf("serial stages: %+v", es.Stages)
	}
	serial := es.Stage("serial")
	if serial != es.Stages[1] || serial.Duration <= 0 || serial.Tasks != es.Txs {
		t.Fatalf("serial stage lookup = %+v, recorded %+v, epoch txs %d", serial, es.Stages[1], es.Txs)
	}
	for _, name := range []string{"execute", "schedule", "commit"} {
		if got := es.Stage(name); got != (metrics.StageStat{}) {
			t.Fatalf("serial epoch reports a %q stage: %+v", name, got)
		}
	}
	if es.Total() != es.Stages[0].Duration+serial.Duration {
		t.Fatalf("Total() = %v, want validate+serial = %v", es.Total(), es.Stages[0].Duration+serial.Duration)
	}
}

// TestPrevalidationOverlap: with a backlog of signed epochs, the commit of
// epoch e prevalidates epoch e+1's signatures in the background, and the
// next validate stage consumes the verdicts (reporting the overlapped
// time) — while producing the exact same state roots as a node processing
// the same blocks with no backlog (and therefore no overlap).
func TestPrevalidationOverlap(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 13, Accounts: 120, Skew: 0.2, InitialBalance: 1_000, Sign: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(240)
	mkNode := func(id string) (*Node, *Miner) {
		cfg := testConfig(1, core.MustNewScheduler(core.DefaultConfig()))
		cfg.VerifySignatures = true
		cfg.Parallelism = 2
		cfg.GenesisWrites = genesisFor(t, gen, txs)
		n, err := New(id, kvstore.NewMemory(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMiner(n, types.AddressFromUint64(3), 60)
		m.AddTxs(txs)
		return n, m
	}

	// Overlapped node: mine the whole backlog, then process it in one go.
	n1, m1 := mkNode("overlap")
	mineAhead(t, n1, m1, 4)
	results, err := n1.ProcessReadyEpochs()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 4 {
		t.Fatalf("processed %d epochs, want >= 4", len(results))
	}
	overlapped := 0
	for _, res := range results[1:] { // epoch 1 has no preceding commit
		if len(res.Stats.Stages) == 0 || res.Stats.Stages[0].Name != "validate" {
			t.Fatalf("epoch %d: missing validate stage", res.Epoch)
		}
		if res.Stats.Stages[0].Overlap > 0 {
			overlapped++
		}
	}
	if overlapped == 0 {
		t.Fatal("no epoch consumed a background prevalidation")
	}

	// Lockstep node: identical blocks, processed as they arrive, so every
	// signature check runs inline. Roots must match epoch for epoch.
	n2, m2 := mkNode("lockstep")
	growEpochs(t, n2, []*Miner{m2}, uint64(len(results)))
	for _, res := range results {
		if root, ok := n2.roots[res.Epoch]; !ok || root != res.StateRoot {
			t.Fatalf("epoch %d: overlapped root %x != lockstep root %x", res.Epoch, res.StateRoot, root)
		}
	}
}

// TestPrevalidationCatchesForgery: a forged transaction in a backlogged
// epoch is caught by the background prevalidation path too — the block is
// discarded exactly as the inline path would.
func TestPrevalidationCatchesForgery(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 14, Accounts: 80, Skew: 0, InitialBalance: 1_000, Sign: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(120)
	// Forge a transaction that will land in a later block: content no
	// longer matches its signature.
	txs[100].Value++

	cfg := testConfig(1, core.MustNewScheduler(core.DefaultConfig()))
	cfg.VerifySignatures = true
	cfg.GenesisWrites = genesisFor(t, gen, txs)
	n, err := New("forged", kvstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	miner := NewMiner(n, types.AddressFromUint64(7), 40)
	miner.AddTxs(txs)
	mineAhead(t, n, miner, 3)
	results, err := n.ProcessReadyEpochs()
	if err != nil {
		t.Fatal(err)
	}
	discarded := 0
	for _, res := range results {
		discarded += len(res.Discarded)
	}
	if discarded != 1 {
		t.Fatalf("%d blocks discarded, want exactly the forged one", discarded)
	}
}

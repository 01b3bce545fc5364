package node

import (
	"context"
	"testing"

	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/mempool"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/workload"
)

// TestMempoolFedMinerPipeline drives the full pipeline through a miner
// whose pool is configured with StrictNonce: transactions enter via
// batched admission, blocks assemble from the pool's deterministic
// nonce-contiguous order, and epochs commit as usual.
func TestMempoolFedMinerPipeline(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 7, Accounts: 500, Skew: 0.3, InitialBalance: 10_000,
		ReadOnlyRatio: -1, PerSenderNonces: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(600)
	cfg := testConfig(3, core.MustNewScheduler(core.DefaultConfig()))
	cfg.GenesisWrites = genesisFor(t, gen, txs)
	cfg.Mempool = &mempool.Config{StrictNonce: true, ShardCap: -1, SenderCap: -1}
	n, err := New("mp-full", kvstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	miner := NewMiner(n, types.AddressFromUint64(99), 100)
	if miner.Pool() == nil {
		t.Fatal("miner has no pool")
	}
	miner.AddTxs(txs)
	if got := miner.PoolSize(); got != 600 {
		t.Fatalf("pool = %d, want 600", got)
	}
	// Gossip echo: re-adding the same batch must not double-queue.
	miner.AddTxs(txs)
	if got := miner.PoolSize(); got != 600 {
		t.Fatalf("pool after re-add = %d, want 600", got)
	}

	growEpochs(t, n, []*Miner{miner}, 2)

	sum := n.Metrics().Summarize()
	if sum.Committed == 0 {
		t.Fatal("nothing committed through the mempool-fed path")
	}
	// Mined transactions advanced the inclusion floors: the pool shrank.
	if miner.PoolSize() >= 600 {
		t.Fatalf("pool never drained: %d", miner.PoolSize())
	}
}

// TestMempoolMinerConvergence replays every block assembled by a
// StrictNonce pool into a second node left on the default pool config:
// both must process identical epochs and agree on every state root — the
// pool config only changes which transactions enter blocks, never how
// blocks execute.
func TestMempoolMinerConvergence(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 11, Accounts: 300, Skew: 0.4, InitialBalance: 5_000,
		ReadOnlyRatio: -1, PerSenderNonces: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(400)
	build := func(id string, mp *mempool.Config) *Node {
		cfg := testConfig(4, core.MustNewScheduler(core.DefaultConfig()))
		cfg.GenesisWrites = genesisFor(t, gen, txs)
		cfg.Mempool = mp
		n, err := New(id, kvstore.NewMemory(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	n1 := build("mp-n1", &mempool.Config{StrictNonce: true, ShardCap: -1, SenderCap: -1})
	n2 := build("mp-n2", nil)
	if n1.StateRoot() != n2.StateRoot() {
		t.Fatal("genesis roots differ")
	}

	miner := NewMiner(n1, types.AddressFromUint64(1), 50)
	miner.AddTxs(txs)
	ctx := context.Background()
	for i := 0; !n1.Ledger().EpochReady(3, 0); i++ {
		if i > 5000 {
			t.Fatal("epochs refuse to complete")
		}
		b, err := miner.Mine(ctx)
		if err != nil {
			t.Fatal(err)
		}
		err1 := n1.SubmitBlock(b)
		err2 := n2.SubmitBlock(b)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("nodes disagree on block validity: %v vs %v", err1, err2)
		}
		if _, err := n1.ProcessReadyEpochs(); err != nil {
			t.Fatal(err)
		}
		if _, err := n2.ProcessReadyEpochs(); err != nil {
			t.Fatal(err)
		}
	}
	if n1.NextEpoch() != n2.NextEpoch() {
		t.Fatalf("nodes at different epochs: %d vs %d", n1.NextEpoch(), n2.NextEpoch())
	}
	if n1.StateRoot() != n2.StateRoot() {
		t.Fatalf("state roots diverge: %s vs %s", n1.StateRoot(), n2.StateRoot())
	}
}

package node

import (
	"bytes"
	"context"
	"testing"

	"github.com/nezha-dag/nezha/internal/contracts/smallbank"
	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/vm"
	"github.com/nezha-dag/nezha/internal/workload"
)

// fixMinerClock replaces the miner's wall clock with a deterministic
// counter so two runs mine byte-identical blocks (block time feeds the
// header hash, which feeds DAG chain assignment).
func fixMinerClock(m *Miner) {
	var tick uint64
	m.clock = func() uint64 {
		tick++
		return tick
	}
}

// genesisMap is the plain-map reference state the serial replays start
// from: the node's genesis writes.
func genesisMap(cfg Config) vm.MapReader {
	ref := make(vm.MapReader, len(cfg.GenesisWrites))
	for _, w := range cfg.GenesisWrites {
		ref[w.Key] = w.Value
	}
	return ref
}

// replayEpoch is the independent serial reference for one processed
// epoch: its committed transactions, replayed one at a time in the
// schedule's serial order through the same contract execution, against a
// plain map holding the pre-epoch state. txs must carry the epoch's IDs.
func replayEpoch(t *testing.T, n *Node, ref vm.MapReader, res *EpochResult, txs []*types.Transaction) {
	t.Helper()
	byID := make(map[types.TxID]*types.Transaction, len(txs))
	for _, tx := range txs {
		byID[tx.ID] = tx
	}
	for _, id := range res.Schedule.SerialOrder() {
		sim := n.simulate(byID[id], ref)
		if sim.Err != nil {
			t.Fatalf("epoch %d: tx %d committed by the pipeline fails in serial replay: %v", res.Epoch, id, sim.Err)
		}
		for _, w := range sim.Writes {
			ref[w.Key] = w.Value
		}
	}
}

// requireState fails unless the node's committed state equals ref key
// for key.
func requireState(t *testing.T, n *Node, ref vm.MapReader) {
	t.Helper()
	held := 0
	if err := n.State().Iterate(func(k types.Key, v []byte) bool {
		if !bytes.Equal(ref[k], v) {
			t.Errorf("epoch %d key %s: node %x, serial replay %x", n.NextEpoch()-1, k, v, ref[k])
		}
		held++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if held != len(ref) {
		t.Fatalf("epoch %d: node holds %d keys, serial replay %d", n.NextEpoch()-1, held, len(ref))
	}
	if t.Failed() {
		t.FailNow()
	}
}

// TestPrefetcherWarmsCache checks the prefetch stage actually ran: over a
// multi-epoch SmallBank run with payload prediction wired, prefetched keys
// must be non-zero and some of them must have been used by execution. The
// mined, prefetched run must also match a serial replay of its epochs.
func TestPrefetcherWarmsCache(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 31, Accounts: 120, Skew: 0.2, InitialBalance: 5_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(300)
	cfg := testConfig(2, core.MustNewScheduler(core.DefaultConfig()))
	cfg.PredictReads = func(tx *types.Transaction) []types.Key {
		return smallbank.PredictCall(tx.Payload)
	}
	cfg.GenesisWrites = genesisFor(t, gen, txs)
	n, err := New("prefetch-node", kvstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	miner := NewMiner(n, types.AddressFromUint64(6), 40)
	fixMinerClock(miner)
	miner.AddTxs(txs)
	// Mine the whole backlog first: the prefetcher only fires when epoch
	// e+1 is already assembled while epoch e commits.
	mineAhead(t, n, miner, 5)
	results, err := n.ProcessReadyEpochs()
	if err != nil {
		t.Fatal(err)
	}
	ref := genesisMap(cfg)
	for _, res := range results {
		blocks, _ := n.Ledger().EpochBlocks(res.Epoch)
		replayEpoch(t, n, ref, res, types.NewEpoch(res.Epoch, blocks).Txs)
	}
	requireState(t, n, ref)

	stats, ok := n.State().MVCCStats()
	if !ok {
		t.Fatal("mvcc store missing after mvcc-mode run")
	}
	if stats.Prefetched == 0 {
		t.Fatalf("no keys prefetched: %+v", stats)
	}
	if stats.PrefetchHits == 0 {
		t.Fatalf("no prefetched key was used: %+v", stats)
	}
	if stats.GCVersions == 0 {
		t.Fatalf("watermark never folded a version: %+v", stats)
	}
}

// TestMVCCMatchesSnapshotExecution runs a mined SmallBank workload, with
// payload read prediction wired, through the MVCC view pipeline and checks
// every epoch against a serial replay over a plain-map snapshot of the
// pre-epoch state: the committed transactions, one at a time in the
// schedule's serial order, through the same contract execution.
// Serializability (§IV-C) means the map must equal the node's committed
// state after each epoch.
func TestMVCCMatchesSnapshotExecution(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 77, Accounts: 150, Skew: 0.6, InitialBalance: 5_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(400)
	cfg := testConfig(2, core.MustNewScheduler(core.DefaultConfig()))
	cfg.PredictReads = func(tx *types.Transaction) []types.Key {
		return smallbank.PredictCall(tx.Payload)
	}
	cfg.GenesisWrites = genesisFor(t, gen, txs)
	n, err := New("mvcc-mode", kvstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	miner := NewMiner(n, types.AddressFromUint64(5), 50)
	fixMinerClock(miner)
	miner.AddTxs(txs)
	ref := genesisMap(cfg)

	const epochs = 4
	ctx := context.Background()
	processed := 0
	for i := 0; n.NextEpoch() <= epochs; i++ {
		if i > 10_000 {
			t.Fatal("epochs refuse to complete")
		}
		b, err := miner.Mine(ctx)
		if err != nil {
			t.Fatalf("mine: %v", err)
		}
		if err := n.SubmitBlock(b); err != nil && !isStale(err) {
			t.Fatalf("submit: %v", err)
		}
		results, err := n.ProcessReadyEpochs()
		if err != nil {
			t.Fatalf("process: %v", err)
		}
		for _, res := range results {
			blocks, _ := n.Ledger().EpochBlocks(res.Epoch)
			replayEpoch(t, n, ref, res, types.NewEpoch(res.Epoch, blocks).Txs)
			processed++
		}
		if len(results) > 0 {
			requireState(t, n, ref)
		}
	}
	if processed < 3 {
		t.Fatalf("only %d epochs processed", processed)
	}
}

// TestMVCCMatchesSnapshotAssembled removes mining from the comparison:
// externally assembled SmallBank epochs run through an MVCC node, and
// after each epoch the committed transactions are replayed serially, as
// above, against a plain-map snapshot seeded with the genesis writes.
// The map must equal the node's committed state exactly.
func TestMVCCMatchesSnapshotAssembled(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 77, Accounts: 150, Skew: 0.6, InitialBalance: 5_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(600)
	cfg := testConfig(2, core.MustNewScheduler(core.DefaultConfig()))
	cfg.GenesisWrites = genesisFor(t, gen, txs)
	n, err := New("mvcc", kvstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := genesisMap(cfg)

	const per = 200
	aborted := 0
	for e := 0; e < 3; e++ {
		chunk := txs[e*per : (e+1)*per]
		var blocks []*types.Block
		for c := 0; c < 2; c++ {
			blocks = append(blocks, &types.Block{
				Header: types.BlockHeader{
					Height:    n.NextEpoch(),
					StateRoot: n.StateRoot(),
					Miner:     types.AddressFromUint64(9),
				},
				Txs: chunk[c*100 : (c+1)*100],
			})
		}
		res, err := n.ProcessAssembledEpoch(blocks)
		if err != nil {
			t.Fatalf("epoch %d: %v", e+1, err)
		}
		aborted += len(res.Schedule.Aborted)

		// Epoch assembly assigned the chunk's tx IDs in block order.
		replayEpoch(t, n, ref, res, chunk)
		requireState(t, n, ref)
	}
	// The replay only means something if the schedule reordered or
	// aborted under contention; skew 0.6 over 150 accounts guarantees it.
	if aborted == 0 {
		t.Fatal("no aborts across three contended epochs; the workload lost its contention")
	}
}

// TestPredictReadsTransfers: native transfers predict exactly the two
// balance cells without any configured predictor.
func TestPredictReadsTransfers(t *testing.T) {
	cfg := testConfig(1, core.MustNewScheduler(core.DefaultConfig()))
	n, err := New("predict", kvstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tx := &types.Transaction{From: types.AddressFromUint64(1), To: types.AddressFromUint64(2)}
	keys := n.predictReads(tx)
	want := []types.Key{types.BalanceKey(tx.From), types.BalanceKey(tx.To)}
	if len(keys) != 2 || keys[0] != want[0] || keys[1] != want[1] {
		t.Fatalf("predicted %v, want %v", keys, want)
	}
	// Contract calls without a predictor predict nothing.
	ctx := &types.Transaction{From: tx.From, To: smallbank.ContractAddress}
	if got := n.predictReads(ctx); got != nil {
		t.Fatalf("contract prediction without hook = %v, want nil", got)
	}
}

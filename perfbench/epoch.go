package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/nezha-dag/nezha/internal/consensus"
	"github.com/nezha-dag/nezha/internal/contracts/smallbank"
	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/kvstore"
	nzmetrics "github.com/nezha-dag/nezha/internal/metrics"
	"github.com/nezha-dag/nezha/internal/node"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/workload"
)

// epochInputs is everything an epoch-replay round consumes, built before
// any timing starts.
type epochInputs struct {
	genesis []types.WriteEntry
	// blocks[e] is epoch e+1's block set; every header carries the genesis
	// root, which validation accepts at any height above 0.
	blocks [][]*types.Block
}

func smallbankGenerator(w WorkloadConfig, seed int64) (*workload.Generator, error) {
	return workload.NewGenerator(workload.Config{
		Seed: seed, Accounts: w.Accounts, Skew: w.Skew, InitialBalance: 10_000,
		ReadOnlyRatio: -1, Sign: w.Sign, PerSenderNonces: w.Sign,
	})
}

func contracts() map[types.Address][]byte {
	return map[types.Address][]byte{smallbank.ContractAddress: smallbank.Program()}
}

func predictReads(tx *types.Transaction) []types.Key { return smallbank.PredictCall(tx.Payload) }

func buildEpochInputs(w WorkloadConfig, seed int64) (*epochInputs, error) {
	gen, err := smallbankGenerator(w, seed)
	if err != nil {
		return nil, err
	}
	in := &epochInputs{genesis: gen.GenesisAll()}
	// The genesis root is derived once on a throwaway node.
	n, err := node.New("genesis", kvstore.NewMemory(), node.Config{
		Consensus: consensus.Params{Chains: w.Omega}, GenesisWrites: in.genesis,
	})
	if err != nil {
		return nil, err
	}
	root := n.StateRoot()
	for e := uint64(1); e <= uint64(w.Epochs); e++ {
		blocks := make([]*types.Block, w.Omega)
		for c := range blocks {
			txs := gen.Txs(w.BlockSize)
			blocks[c] = &types.Block{
				Header: types.BlockHeader{
					TxRoot:    types.ComputeTxRoot(txs),
					StateRoot: root,
					Time:      e,
					Miner:     types.AddressFromUint64(uint64(c)),
					ChainID:   uint32(c),
					Height:    e,
					Rank:      e,
					NextRank:  e + 1,
				},
				Txs: txs,
			}
			blocks[c].Hash()
		}
		in.blocks = append(in.blocks, blocks)
	}
	return in, nil
}

// epochNodeConfig is the node under test; the scheduler is the paper's
// full Nezha design with the parallel core sized to the machine.
func epochNodeConfig(w WorkloadConfig, in *epochInputs, sched types.Scheduler) node.Config {
	return node.Config{
		Consensus:        consensus.Params{Chains: w.Omega},
		Scheduler:        sched,
		Workers:          runtime.GOMAXPROCS(0),
		Contracts:        contracts(),
		GenesisWrites:    in.genesis,
		PredictReads:     predictReads,
		RetainEpochStats: 64,
	}
}

func newScheduler() types.Scheduler { return core.MustNewScheduler(core.DefaultConfig()) }

// openStore opens the round's store: an LSM in a fresh directory under
// the build directory, or memory.
func openStore(w WorkloadConfig, buildDir string, round int) (kvstore.Store, string, error) {
	if !w.Durable {
		return kvstore.NewMemory(), "", nil
	}
	dir, err := os.MkdirTemp(buildDir, fmt.Sprintf("lsm-%s-r%d-", w.Name, round))
	if err != nil {
		return nil, "", err
	}
	s, err := kvstore.OpenLSM(dir, kvstore.DefaultLSMOptions())
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	return s, dir, nil
}

func dirSize(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// checkAccounting verifies one epoch's outcome closes: every tx either
// committed, was aborted by the scheduler, or failed execution.
func checkAccounting(res *node.EpochResult) error {
	s := res.Stats
	if s.Committed+s.Aborted+s.ExecutionFailed != s.Txs {
		return fmt.Errorf("epoch %d: committed %d + aborted %d + exec-failed %d != txs %d",
			res.Epoch, s.Committed, s.Aborted, s.ExecutionFailed, s.Txs)
	}
	return nil
}

// epochRound runs one round: a fresh node replays every pre-assembled
// epoch. roots receives each epoch's root.
func epochRound(w WorkloadConfig, in *epochInputs, buildDir string, r int, a *acc, tr *tracer) (roots []types.Hash, err error) {
	runtime.GC()
	t0 := time.Now()
	store, dir, err := openStore(w, buildDir, r)
	if err != nil {
		return nil, err
	}
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	defer store.Close()
	sched := newScheduler()
	if tr != nil {
		store = &tracedStore{Store: store, tr: tr}
		sched = &tracedScheduler{inner: sched, tr: tr}
	}
	n, err := node.New("bench", store, epochNodeConfig(w, in, sched))
	if err != nil {
		return nil, err
	}
	a.setup = append(a.setup, time.Since(t0).Seconds())

	var sum roundSummary
	mv0, _ := n.State().MVCCStats()
	rt0 := takeRT()
	root := tr.openRound(r)
	rc := a.startRound()
	for e, blocks := range in.blocks {
		group := uint64(r)<<32 | uint64(e+1)
		ci := int32(-1)
		if tr != nil {
			ci = tr.begin(root, lUnattributed, "ProcessAssembledEpoch", group)
		}
		c0 := time.Now()
		res, err := n.ProcessAssembledEpoch(append([]*types.Block(nil), blocks...))
		d := time.Since(c0)
		if err != nil {
			return nil, fmt.Errorf("round %d epoch %d: %w", r, e+1, err)
		}
		if tr != nil {
			tr.end(ci, root)
			tr.epochSpans(ci, []nzmetrics.EpochStats{res.Stats}, []uint64{group})
		}
		if err := checkAccounting(res); err != nil {
			return nil, err
		}
		ms := float64(d) / 1e6
		a.epochMS.add(sample{ms, 1})
		a.confirmMS.add(sample{ms, res.Stats.Committed})
		a.epochs = append(a.epochs, epochSample{res.Stats, d})
		a.sampleHeap()
		sum.Epochs++
		sum.Offered += res.Stats.Txs
		sum.Committed += res.Stats.Committed
		sum.Aborted += res.Stats.Aborted
		sum.ExecFailed += res.Stats.ExecutionFailed
		roots = append(roots, res.StateRoot)
	}
	a.endRound(rc)
	tr.closeRound(root)
	a.addRT(rt0, takeRT())
	mv1, _ := n.State().MVCCStats()
	a.addMVCC(mv0, mv1)
	if dir != "" {
		a.diskBytes += dirSize(dir)
	}
	sum.Root = n.StateRoot()
	a.rounds = append(a.rounds, sum)
	return roots, nil
}

// replayCheck replays the opening epochs through a fresh node that
// re-verifies every schedule against serial execution, and compares the
// roots with the measured round's.
func replayCheck(w WorkloadConfig, in *epochInputs, want []types.Hash) error {
	cfg := epochNodeConfig(w, in, newScheduler())
	cfg.VerifySchedules = true
	n, err := node.New("replay", kvstore.NewMemory(), cfg)
	if err != nil {
		return err
	}
	for e := 0; e < w.ReplayEpochs && e < len(in.blocks); e++ {
		res, err := n.ProcessAssembledEpoch(append([]*types.Block(nil), in.blocks[e]...))
		if err != nil {
			return fmt.Errorf("replay epoch %d: %w", e+1, err)
		}
		if res.StateRoot != want[e] {
			return fmt.Errorf("replay epoch %d: root %x, measured run %x", e+1, res.StateRoot[:8], want[e][:8])
		}
	}
	return nil
}

package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"github.com/nezha-dag/nezha/internal/consensus"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/mempool"
	nzmetrics "github.com/nezha-dag/nezha/internal/metrics"
	"github.com/nezha-dag/nezha/internal/node"
	"github.com/nezha-dag/nezha/internal/types"
)

// ingestInputs is the signed transaction stream of one round and the
// genesis state, built before any timing starts.
type ingestInputs struct {
	genesis []types.WriteEntry
	txs     []*types.Transaction
	index   map[*types.Transaction]int
}

func buildIngestInputs(w WorkloadConfig, seed int64) (*ingestInputs, error) {
	gen, err := smallbankGenerator(w, seed)
	if err != nil {
		return nil, err
	}
	in := &ingestInputs{genesis: gen.GenesisAll(), txs: gen.Txs(w.Offered)}
	in.index = make(map[*types.Transaction]int, len(in.txs))
	for i, tx := range in.txs {
		tx.Hash()
		in.index[tx] = i
	}
	return in, nil
}

// replica is one node with its own mempool.
type replica struct {
	n    *node.Node
	pool *mempool.Pool
	addr types.Address
	seed uint64
}

// idleRoundLimit ends a round's drain after this many consecutive mining
// rounds that resolve nothing: whatever is left can no longer be mined.
const idleRoundLimit = 16

// Per-tx progress through one round; the zero value is not yet offered.
const (
	txAdmitted uint8 = iota + 1
	txMined
	txResolved
)

// ingestRound runs one round on fresh replicas: a closed loop keeps
// InFlight transactions offered but unresolved until all Offered are
// offered, then drains. Each mining round every replica assembles from its
// pool, mines with the round number as its clock and a fixed nonce seed,
// and hands the block to every replica and pool; then every replica
// processes the epochs its ledger completed. One goroutine drives it all,
// so a seed fixes every block, epoch and root.
func ingestRound(w WorkloadConfig, in *ingestInputs, r int, a *acc, tr *tracer) error {
	runtime.GC()
	params := consensus.Params{Chains: w.Chains}
	t0 := time.Now()
	reps := make([]*replica, w.Replicas)
	for i := range reps {
		var store kvstore.Store = kvstore.NewMemory()
		var sched types.Scheduler = newScheduler()
		if tr != nil {
			store = &tracedStore{Store: store, tr: tr}
			sched = &tracedScheduler{inner: sched, tr: tr}
		}
		id := fmt.Sprintf("replica-%d", i)
		n, err := node.New(id, store, node.Config{
			Consensus:        params,
			Scheduler:        sched,
			Workers:          runtime.GOMAXPROCS(0),
			Contracts:        contracts(),
			GenesisWrites:    in.genesis,
			PredictReads:     predictReads,
			VerifySignatures: true,
			RetainEpochStats: 64,
		})
		if err != nil {
			return err
		}
		reps[i] = &replica{
			n: n,
			// No per-sender cap: Assemble serves senders in address order,
			// so a hot sender late in that order queues more than the
			// default 64 and would see its transactions refused.
			pool: mempool.New(mempool.Config{StrictNonce: true, VerifySignatures: true, SenderCap: -1, Tag: id}),
			addr: types.AddressFromUint64(uint64(i + 1)),
			seed: uint64(i+1) << 40,
		}
	}
	a.setup = append(a.setup, time.Since(t0).Seconds())

	state := make([]uint8, len(in.txs))
	admitAt := make([]time.Time, len(in.txs))
	minedAt := make(map[types.Hash]time.Time)
	var sum roundSummary
	next, unresolved := 0, 0
	mv0, _ := reps[0].n.State().MVCCStats()
	rt0 := takeRT()
	root := tr.openRound(r)
	// call times f as a driver call on layer l.
	call := func(l layer, name string, f func()) time.Duration {
		ci := int32(-1)
		if tr != nil {
			ci = tr.begin(root, l, name, uint64(r)<<32)
		}
		c0 := time.Now()
		f()
		d := time.Since(c0)
		if tr != nil {
			tr.end(ci, root)
		}
		return d
	}
	rc := a.startRound()
	idle := 0
	for clock := uint64(1); idle < idleRoundLimit; clock++ {
		if next == len(in.txs) && unresolved == 0 {
			break
		}
		// Top up the closed-loop window.
		if k := min(w.InFlight-unresolved, len(in.txs)-next); k > 0 {
			batch := in.txs[next : next+k]
			now := time.Now()
			rejected := make([]bool, k)
			for _, rp := range reps {
				var errs []error
				d := call(lMempool, "AdmitBatch", func() { _, errs = rp.pool.AdmitBatch(batch) })
				a.admitNS += int64(d)
				a.admitTxs += int64(k)
				for j, err := range errs {
					if err != nil && !rejected[j] {
						rejected[j] = true
						a.rejectedBy[rejectReason(err)]++
					}
				}
			}
			for j := range batch {
				i := next + j
				if rejected[j] {
					sum.Rejected++
					state[i] = txResolved
					continue
				}
				state[i] = txAdmitted
				admitAt[i] = now
				unresolved++
			}
			sum.Offered += k
			next += k
		}
		// Mine one block per replica and deliver it everywhere.
		for _, rp := range reps {
			var txs []*types.Transaction
			a.assembleNS += int64(call(lMempool, "Assemble", func() { txs = rp.pool.Assemble(w.BlockSize) }))
			a.assembles++
			var b *types.Block
			var err error
			a.mineNS += int64(call(lConsensus, "Mine", func() { b, err = mineBalanced(rp, txs, clock, params) }))
			a.mined++
			if err != nil {
				return fmt.Errorf("mine: %w", err)
			}
			now := time.Now()
			minedAt[b.Hash()] = now
			for _, tx := range txs {
				i := in.index[tx]
				if state[i] != txAdmitted {
					return fmt.Errorf("tx %d assembled in state %d", i, state[i])
				}
				state[i] = txMined
				a.mempoolWaitMS = append(a.mempoolWaitMS, sample{float64(now.Sub(admitAt[i])) / 1e6, 1})
				if tr != nil {
					g := uint64(r)<<32 | uint64(i)
					tr.add(span{start: int64(admitAt[i].Sub(tr.origin)), end: int64(now.Sub(tr.origin)), parent: -1, layer: lWait, name: "mempool.wait", group: g, call: -1})
				}
			}
			for _, dst := range reps {
				a.submitNS += int64(call(lDag, "SubmitBlock", func() { err = dst.n.SubmitBlock(b) }))
				a.submits++
				if err != nil {
					a.rejectedBlocks++
				}
			}
			for _, dst := range reps {
				a.markNS += int64(call(lMempool, "MarkIncluded", func() { dst.pool.MarkIncluded(txs) }))
				a.marks++
			}
		}
		l0 := reps[0].n.Ledger()
		lo, hi := l0.Height(0), l0.Height(0)
		for c := 1; c < w.Chains; c++ {
			h := l0.Height(uint32(c))
			lo, hi = min(lo, h), max(hi, h)
		}
		a.heightSpread = append(a.heightSpread, float64(hi-lo))

		// Every replica processes whatever its ledger completed.
		var results [][]*node.EpochResult
		var done time.Time
		for k, rp := range reps {
			ci := int32(-1)
			if tr != nil {
				ci = tr.begin(root, lUnattributed, "ProcessReadyEpochs", uint64(r)<<32)
			}
			c0 := time.Now()
			res, err := rp.n.ProcessReadyEpochs()
			d := time.Since(c0)
			if k == 0 {
				done = time.Now()
			}
			if err != nil {
				return fmt.Errorf("%s: process epochs: %w", rp.n.ID(), err)
			}
			stats := make([]nzmetrics.EpochStats, len(res))
			groups := make([]uint64, len(res))
			var stageSum time.Duration
			for j, er := range res {
				stats[j] = er.Stats
				groups[j] = uint64(r)<<32 | er.Epoch
				for _, ss := range er.Stats.Stages {
					stageSum += ss.Duration
				}
			}
			if tr != nil {
				tr.end(ci, root)
				tr.epochSpans(ci, stats, groups)
			}
			// A call's time is shared among its epochs by their stage time.
			for _, er := range res {
				if err := checkAccounting(er); err != nil {
					return fmt.Errorf("%s: %w", rp.n.ID(), err)
				}
				var own time.Duration
				for _, ss := range er.Stats.Stages {
					own += ss.Duration
				}
				share := d / time.Duration(len(res))
				if stageSum > 0 {
					share = time.Duration(float64(d) * float64(own) / float64(stageSum))
				}
				a.epochs = append(a.epochs, epochSample{er.Stats, share})
				a.epochMS.add(sample{float64(share) / 1e6, 1})
			}
			results = append(results, res)
		}
		if len(results[0]) > 0 {
			a.sampleHeap()
		}
		// Replicas must agree epoch by epoch; replica 0's results settle
		// every tx of each epoch.
		progress := false
		for k := 1; k < len(results); k++ {
			if len(results[k]) != len(results[0]) {
				return fmt.Errorf("replica %d processed %d epochs, replica 0 %d", k, len(results[k]), len(results[0]))
			}
		}
		for j, er := range results[0] {
			for k := 1; k < len(results); k++ {
				if results[k][j].StateRoot != er.StateRoot {
					return fmt.Errorf("epoch %d: replica %d disagrees with replica 0", er.Epoch, k)
				}
			}
			blocks, ok := reps[0].n.Ledger().EpochBlocks(er.Epoch)
			if !ok {
				return fmt.Errorf("epoch %d: blocks not in ledger", er.Epoch)
			}
			for _, b := range blocks {
				a.dagWaitMS = append(a.dagWaitMS, sample{float64(done.Sub(minedAt[b.Hash()])) / 1e6, 1})
				if tr != nil {
					tr.add(span{start: int64(minedAt[b.Hash()].Sub(tr.origin)), end: int64(done.Sub(tr.origin)), parent: -1, layer: lWait, name: "dag.wait", group: uint64(r)<<32 | er.Epoch, call: -1})
				}
				delete(minedAt, b.Hash())
				for _, tx := range b.Txs {
					i, ok := in.index[tx]
					if !ok || state[i] != txMined {
						return fmt.Errorf("epoch %d: tx %d resolved twice or never mined", er.Epoch, i)
					}
					state[i] = txResolved
					unresolved--
					progress = true
					if er.Schedule.IsCommitted(tx.ID) {
						a.confirmMS.add(sample{float64(done.Sub(admitAt[i])) / 1e6, 1})
					}
				}
			}
			sum.Epochs++
			sum.Committed += er.Stats.Committed
			sum.Aborted += er.Stats.Aborted
			sum.ExecFailed += er.Stats.ExecutionFailed
		}
		if progress || next < len(in.txs) {
			idle = 0
		} else {
			idle++
		}
	}
	a.endRound(rc)
	tr.closeRound(root)
	a.addRT(rt0, takeRT())
	mv1, _ := reps[0].n.State().MVCCStats()
	a.addMVCC(mv0, mv1)
	sum.Lost = unresolved
	sum.Root = reps[0].n.StateRoot()
	a.rounds = append(a.rounds, sum)
	return nil
}

// maxMineAttempts bounds mineBalanced's search; with k chains an attempt
// lands on a lowest chain with probability at least 1/k.
const maxMineAttempts = 256

// mineBalanced mines until the block's hash assigns it to one of the
// lowest chains, trying a fresh nonce range per attempt. OHIE assigns a
// block to a chain by its hash, so without this the chain heights drift
// apart as a random walk that the seed decides, and epoch e (height e on
// every chain) waits on the laggard; the drift, not the node, then sets
// the latency and size of epochs. Mining onto the lowest chains keeps the
// heights within one block of each other, which is what a fixed
// difficulty per chain gives on average.
func mineBalanced(rp *replica, txs []*types.Transaction, clock uint64, params consensus.Params) (*types.Block, error) {
	l := rp.n.Ledger()
	low := l.Height(0)
	for c := 1; c < params.Chains; c++ {
		low = min(low, l.Height(uint32(c)))
	}
	for i := uint64(0); i < maxMineAttempts; i++ {
		b, err := consensus.Mine(context.Background(), consensus.Template{
			Ledger: l, StateRoot: rp.n.StateRoot(), Txs: txs,
			Miner: rp.addr, Time: clock, NonceSeed: rp.seed + i<<20,
		}, params)
		if err != nil {
			return nil, err
		}
		if b.Header.Height == low+1 {
			return b, nil
		}
	}
	return nil, fmt.Errorf("no block on a lowest chain after %d attempts", maxMineAttempts)
}

func rejectReason(err error) string {
	for _, e := range []error{mempool.ErrDuplicate, mempool.ErrNonceTooLow, mempool.ErrUnderpriced,
		mempool.ErrSenderLimit, mempool.ErrRateLimited, mempool.ErrPoolFull, mempool.ErrBadSignature} {
		if errors.Is(err, e) {
			return e.Error()
		}
	}
	return err.Error()
}

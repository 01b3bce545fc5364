package node

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nezha-dag/nezha/internal/crypto"
	"github.com/nezha-dag/nezha/internal/fail"
	"github.com/nezha-dag/nezha/internal/journal"
	"github.com/nezha-dag/nezha/internal/metrics"
	"github.com/nezha-dag/nezha/internal/statedb"
	"github.com/nezha-dag/nezha/internal/types"
)

// The epoch pipeline as named stages.
//
// processBlocksLocked used to be one monolithic body; it is now a stage
// list, each stage a named function over the shared epochRun scratch. The
// stage boundary is also the measurement boundary: runStages times every
// stage into a metrics.StageStat (queue depth, worker count, busy time),
// the one per-stage record every phase total is read from.
//
// Cross-epoch overlap: the only inter-epoch dependency is the state
// snapshot — execution of epoch e+1 needs the post-commit state of epoch
// e, but signature validation of e+1 needs no state at all. The commit
// stage therefore kicks a background signature prevalidation of epoch
// e+1 (kickPrevalidation) that runs under epoch e's MPT/LSM commit; the
// next validate stage collects it (takePrevalidation) and falls back to
// inline checking for any block the background pass did not cover.

// stage is one named step of the epoch pipeline. run receives the stage's
// StageStat with Name and Workers pre-filled and may refine Tasks, Busy,
// Workers, and Overlap; runStages fills Duration. failName is the stage's
// handoff failpoint, evaluated before the stage runs (precomputed so the
// disabled fast path costs no string concatenation per epoch).
type stage struct {
	name     string
	failName fail.Name
	run      func(n *Node, er *epochRun, ss *metrics.StageStat) error
}

// epochRun is the scratch state one epoch threads through its stages.
type epochRun struct {
	number uint64
	blocks []*types.Block

	epoch      *types.Epoch
	state      statedb.Reader     // pre-epoch read state: the MVCC view
	results    []*types.SimResult // pooled; nil-ed and returned after the epoch
	sims       []*types.SimResult // results minus execution failures
	execFailed []types.TxID
	sched      *types.Schedule

	stats *metrics.EpochStats
	res   *EpochResult
}

// mvccStages is the speculative pipeline of §III-B — validation,
// concurrent execution, concurrency control, group-concurrent commitment —
// over the copy-free MVCC view, with the read-set prefetch of epoch e+1
// kicked just before epoch e's commit so it rides under the trie flush.
var mvccStages = []stage{
	{"validate", fail.NodeStageValidate, (*Node).validateStage},
	{"execute", fail.NodeStageExecute, (*Node).executeStage},
	{"schedule", fail.NodeStageSchedule, (*Node).scheduleStage},
	{"prefetch", fail.NodeStagePrefetch, (*Node).prefetchStage},
	{"commit", fail.NodeStageCommit, (*Node).commitStage},
}

// serialStages is the serial baseline of §VI-B behind the same harness.
var serialStages = []stage{
	{"validate", fail.NodeStageValidate, (*Node).validateStage},
	{"serial", fail.NodeStageSerial, (*Node).serialStage},
}

// runStages drives the pipeline: each stage is timed into a StageStat
// appended to stats.Stages.
func (n *Node) runStages(er *epochRun, stages []stage) error {
	for _, st := range stages {
		// Stage-handoff failpoint: an injected error aborts the epoch
		// before the stage touches shared state; an injected panic
		// simulates a crash between stages.
		if err := fail.HitTag(st.failName, n.id); err != nil {
			return fmt.Errorf("node: epoch %d %s handoff: %w", er.number, st.name, err)
		}
		ss := metrics.StageStat{Name: st.name, Workers: 1}
		start := time.Now()
		if err := st.run(n, er, &ss); err != nil {
			return err
		}
		ss.Duration = time.Since(start)
		er.stats.Stages = append(er.stats.Stages, ss)
		n.recordStageMetrics(st.name, ss)
		n.jr.Emit(journal.NodeStageDone, er.number, //nezha:dettaint-ok only the stage name and task count are journaled; the wall-clock Duration on ss stays in metrics and the tracer
			journal.FS("stage", st.name), journal.F("tasks", uint64(ss.Tasks)))
		n.tracer.Span(n.id, st.name, start, ss.Duration, map[string]any{
			"epoch":     er.number,
			"tasks":     ss.Tasks,
			"workers":   ss.Workers,
			"occupancy": ss.Occupancy(),
		})
	}
	return nil
}

// validateStage discards blocks whose state root does not match an agreed
// epoch state or that carry an invalid signature (§III-B). Signature
// verdicts prevalidated under the previous epoch's commit are consumed
// here; blocks the background pass missed are checked inline.
func (n *Node) validateStage(er *epochRun, ss *metrics.StageStat) error {
	pv := n.takePrevalidation(er.number)
	ss.Tasks = len(er.blocks)
	ss.Workers = n.cfg.Workers
	if pv != nil {
		// Time the background pass spent under the previous commit —
		// latency this epoch did not pay.
		ss.Overlap = pv.elapsed
		n.tracer.Span(n.id+"/background", "prevalidate", pv.started, pv.elapsed,
			map[string]any{"epoch": er.number, "blocks": len(pv.ok)})
	}
	valid := er.blocks[:0]
	for _, b := range er.blocks {
		sigOK := true
		if n.cfg.VerifySignatures {
			if verdict, ok := pv.lookup(b.Hash()); ok {
				sigOK = verdict
			} else {
				sigOK = n.validSignatures(b)
			}
		}
		if sigOK && n.validStateRootLocked(b) {
			valid = append(valid, b)
		} else {
			h := b.Hash()
			er.res.Discarded = append(er.res.Discarded, h)
			n.jr.Emit(journal.NodeBlockDiscard, er.number,
				journal.F("block", journal.FoldBytes(h[:])))
		}
	}
	er.epoch = types.NewEpoch(er.number, valid)
	er.stats.Txs = len(er.epoch.Txs)
	// The assembled composition — which blocks survived validation, in
	// what order, carrying which transactions — is the scheduler's entire
	// input. Journaling its digests here is what lets divergence forensics
	// tell "the nodes scheduled different inputs" apart from "the nodes
	// scheduled the same input differently" (ROADMAP item 6). Enabled()
	// gates the digest walk, not just the append.
	if journal.Enabled() {
		bd, td := assemblyDigests(valid, er.epoch.Txs)
		n.jr.Emit(journal.NodeEpochAssembly, er.number,
			journal.F("blocks", uint64(len(valid))),
			journal.F("txs", uint64(len(er.epoch.Txs))),
			journal.F("bdigest", bd),
			journal.F("tdigest", td))
	}
	return nil
}

// assemblyDigests folds the epoch composition into two comparable values:
// FNV-1a over the surviving block hashes in epoch order, and over the
// transaction hashes in their assigned ID order. Any difference in which
// blocks survived, their order, or the tx order they induce perturbs one
// of the digests.
func assemblyDigests(blocks []*types.Block, txs []*types.Transaction) (uint64, uint64) {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	fold := func(h uint64, b []byte) uint64 {
		for _, c := range b {
			h ^= uint64(c)
			h *= prime
		}
		return h
	}
	bd := uint64(offset)
	for _, b := range blocks {
		h := b.Hash()
		bd = fold(bd, h[:])
	}
	td := uint64(offset)
	for _, tx := range txs {
		h := tx.Hash()
		td = fold(td, h[:])
	}
	return bd, td
}

// AssemblyDigests re-derives the node/epoch-assembly digests for an epoch
// from its canonical blocks — the forensic hook the recovery self-audit
// and the crash-point sweep use to compare composition across a crash
// boundary. Epoch assembly is deterministic in the block sequence:
// types.NewEpoch assigns transaction IDs in block order, so two nodes (or
// one node before and after a restart) holding the same blocks in the same
// order must produce identical digests. Re-assigning IDs here is
// idempotent for blocks taken in their canonical epoch order.
func AssemblyDigests(epoch uint64, blocks []*types.Block) (blockDigest, txDigest uint64) {
	ep := types.NewEpoch(epoch, blocks)
	return assemblyDigests(blocks, ep.Txs)
}

// executeStage speculatively executes the epoch's transactions against the
// pre-epoch state on the worker pool. Reads go through a copy-free MVCC
// view (no per-epoch state duplication); the background prefetch of this
// epoch's read set is collected first and its hidden time credited as
// overlap. Workers pull indices from an atomic counter (cheaper than a
// channel at this fan-out) and write disjoint slots of the pooled results
// buffer; per-worker busy spans feed the stage's occupancy counters.
func (n *Node) executeStage(er *epochRun, ss *metrics.StageStat) error {
	if pf := n.takePrefetch(er.number); pf != nil {
		ss.Overlap = pf.elapsed
		n.tracer.Span(n.id+"/background", "prefetch", pf.started, pf.elapsed,
			map[string]any{"epoch": er.number, "keys": pf.keys})
	}
	er.state = n.state.View()
	txs := er.epoch.Txs
	er.results = getResultsBuf(len(txs))
	workers := n.cfg.Workers
	if workers > len(txs) && len(txs) > 0 {
		workers = len(txs)
	}
	ss.Tasks = len(txs)
	ss.Workers = workers

	busy := make([]time.Duration, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t0 := time.Now()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(txs) {
					break
				}
				er.results[i] = n.simulate(txs[i], er.state)
			}
			busy[w] = time.Since(t0)
		}(w)
	}
	wg.Wait()
	for _, d := range busy {
		ss.Busy += d
	}

	er.sims = make([]*types.SimResult, 0, len(er.results))
	for _, r := range er.results {
		if r.Err != nil {
			er.execFailed = append(er.execFailed, r.Tx.ID)
			continue
		}
		er.sims = append(er.sims, r)
	}
	er.stats.ExecutionFailed = len(er.execFailed)
	return nil
}

// scheduleStage runs the configured concurrency-control scheme and folds
// execution failures into the abort set.
func (n *Node) scheduleStage(er *epochRun, ss *metrics.StageStat) error {
	sched, breakdown, err := n.cfg.Scheduler.Schedule(er.sims)
	if err != nil {
		return fmt.Errorf("node: schedule epoch %d: %w", er.number, err)
	}
	for _, id := range er.execFailed {
		sched.Abort(id, types.AbortExecution)
	}
	sched.NormalizeAborts()
	er.sched = sched
	er.stats.Aborted = sched.AbortedCount() - len(er.execFailed)
	er.stats.ControlBreakdown = breakdown
	ss.Tasks = len(er.sims)
	ss.Workers = breakdown.Shards

	// The scheduler's phase output is the replica-deterministic artifact
	// divergence forensics align on; the digest folds the group layout so
	// a reordered or resized group shows up without journaling every id.
	// Enabled() gates the digest walk, not just the append.
	if journal.Enabled() {
		groups := sched.Groups()
		n.jr.Emit(journal.SchedGroups, er.number,
			journal.F("groups", uint64(len(groups))),
			journal.F("rescued", uint64(breakdown.Rescued)),
			journal.F("digest", groupDigest(groups)))
	}

	if n.cfg.VerifySchedules {
		if err := verifyAgainstState(er.state, er.sims, sched); err != nil {
			return fmt.Errorf("node: epoch %d schedule unsound: %w", er.number, err)
		}
	}
	return nil
}

// groupDigest folds a schedule's commit-group layout into one comparable
// value: FNV-1a over each group's size and first/last transaction id.
// Groups are already in deterministic commit order, so two replicas that
// scheduled the same epoch identically produce the same digest, and any
// layout difference — a split group, a reordered boundary — perturbs it.
func groupDigest(groups [][]types.TxID) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		mix(uint64(len(g)))
		mix(uint64(g[0]))
		mix(uint64(g[len(g)-1]))
	}
	return h
}

// prefetchStage kicks the background read-set prefetch of the NEXT epoch:
// a goroutine walks epoch e+1's predicted read keys and pulls the cold
// ones into the MVCC version cache while epoch e's commit flushes the
// trie. The next executeStage collects it (takePrefetch) and credits the
// hidden time as overlap. The stage itself only launches the goroutine.
func (n *Node) prefetchStage(er *epochRun, ss *metrics.StageStat) error {
	n.kickPrefetch(er.number + 1)
	if n.prefetch != nil {
		ss.Tasks = n.prefetch.keys
	}
	ss.Workers = 1
	return nil
}

// commitStage applies the commit groups concurrently to a pooled overlay
// and flushes the updated cells to the trie and store. Before the flush
// starts it kicks the background signature prevalidation of the NEXT
// epoch, so that work rides under this epoch's MPT/LSM commit.
func (n *Node) commitStage(er *epochRun, ss *metrics.StageStat) error {
	n.kickPrevalidation(er.number + 1)
	ss.Tasks = er.sched.CommittedCount()
	ss.Workers = n.cfg.Workers
	ov := overlayPool.Get().(*overlay)
	if _, err := commitScheduleInto(n.state, er.sims, er.sched, n.cfg.Workers, ov); err != nil {
		return fmt.Errorf("node: commit epoch %d: %w", er.number, err)
	}
	ov.reset()
	overlayPool.Put(ov)
	return nil
}

// serialStage is the baseline of §VI-B: execute and commit each
// transaction in order against the live head state, no speculation, no
// aborts (failed executions are skipped, as a failed EVM transaction would
// be). It reads the head directly rather than through a view, so the
// per-transaction commits never create the MVCC version cache.
func (n *Node) serialStage(er *epochRun, ss *metrics.StageStat) error {
	sched := types.NewSchedule()
	seq := types.Seq(1)
	for _, tx := range er.epoch.Txs {
		sim := n.simulate(tx, n.state)
		if sim.Err != nil {
			sched.Abort(tx.ID, types.AbortExecution)
			er.stats.ExecutionFailed++
			continue
		}
		if _, err := n.state.Commit(sim.Writes); err != nil {
			return fmt.Errorf("node: serial commit: %w", err)
		}
		sched.Commit(tx.ID, seq)
		seq++
	}
	sched.NormalizeAborts()
	er.sched = sched
	ss.Tasks = len(er.epoch.Txs)
	return nil
}

// prevalidation is one background signature-checking run for an upcoming
// epoch. The goroutine writes ok and elapsed strictly before closing done,
// so a reader that waits on done observes both.
type prevalidation struct {
	epoch   uint64
	done    chan struct{}
	ok      map[types.Hash]bool
	started time.Time
	elapsed time.Duration
}

// lookup returns the prevalidated verdict for a block, if the background
// pass covered it. Nil-receiver safe: no prevalidation means no verdicts.
func (pv *prevalidation) lookup(h types.Hash) (verdict, covered bool) {
	if pv == nil {
		return false, false
	}
	v, ok := pv.ok[h]
	return v, ok
}

// kickPrevalidation starts checking epoch e's block signatures in the
// background. Caller holds n.mu; the goroutine itself must not touch any
// mu-guarded state — it reads only the ledger (internally locked; blocks
// are immutable once added) and writes its own prevalidation record.
// Fork-choice races are harmless: verdicts are keyed by block hash and the
// validate stage re-checks uncovered blocks inline.
func (n *Node) kickPrevalidation(e uint64) {
	if !n.cfg.VerifySignatures {
		return
	}
	blocks, ok := n.ledger.EpochBlocks(e)
	if !ok || len(blocks) == 0 {
		return
	}
	pv := &prevalidation{
		epoch: e,
		done:  make(chan struct{}),
		ok:    make(map[types.Hash]bool, len(blocks)),
	}
	n.preval = pv
	workers := n.parallelism()
	go func() {
		pv.started = time.Now()
		for _, b := range blocks {
			pv.ok[b.Hash()] = n.checkSignatures(b, workers)
		}
		pv.elapsed = time.Since(pv.started)
		close(pv.done)
	}()
}

// takePrevalidation claims the pending background run for epoch e, waiting
// for it to finish. A run for a different epoch (fork reorg, assembled
// epochs bypassing the ledger) is dropped without waiting — its goroutine
// only touches its own record and dies quietly.
func (n *Node) takePrevalidation(e uint64) *prevalidation {
	pv := n.preval
	n.preval = nil
	if pv == nil || pv.epoch != e {
		return nil
	}
	<-pv.done
	return pv
}

// prefetchRun is one background read-set prefetch for an upcoming epoch.
// The goroutine writes keys/loaded/elapsed strictly before closing done,
// so a reader that waits on done observes all of them.
type prefetchRun struct {
	epoch   uint64
	done    chan struct{}
	keys    int // predicted keys walked
	started time.Time
	elapsed time.Duration
}

// predictReads guesses the state keys a transaction will read from its
// payload alone — the prefetcher's input. Native transfers touch exactly
// the sender and recipient balance cells; contract read sets come from
// cfg.PredictReads when the embedder can derive them (the chaos harness
// does for SmallBank). A misprediction only costs a wasted cache fill.
func (n *Node) predictReads(tx *types.Transaction) []types.Key {
	if _, isContract := n.cfg.Contracts[tx.To]; isContract {
		if n.cfg.PredictReads != nil {
			return n.cfg.PredictReads(tx)
		}
		return nil
	}
	return []types.Key{types.BalanceKey(tx.From), types.BalanceKey(tx.To)}
}

// kickPrefetch starts pulling epoch e's predicted read set into the MVCC
// version cache in the background. Caller holds n.mu; like the signature
// prevalidation, the goroutine must not touch mu-guarded state — it reads
// the ledger (internally locked) and the statedb (internally locked) and
// writes only its own record. It is kicked before the commit stage so the
// trie walks ride under the flush; the mvcc reservation protocol makes the
// concurrent loads safe, and keys the commit is about to write are
// skipped as reserved.
func (n *Node) kickPrefetch(e uint64) {
	blocks, ok := n.ledger.EpochBlocks(e)
	if !ok || len(blocks) == 0 {
		return
	}
	var keys []types.Key
	seen := make(map[types.Key]struct{})
	for _, b := range blocks {
		for _, tx := range b.Txs {
			for _, k := range n.predictReads(tx) {
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
				keys = append(keys, k)
			}
		}
	}
	if len(keys) == 0 {
		return
	}
	pf := &prefetchRun{epoch: e, done: make(chan struct{}), keys: len(keys)}
	n.prefetch = pf
	go func() {
		pf.started = time.Now()
		for _, k := range keys {
			// Load errors are non-fatal here: the execute stage will hit
			// the same error on the synchronous path and report it there.
			_ = n.state.Prefetch(k)
		}
		pf.elapsed = time.Since(pf.started)
		close(pf.done)
	}()
}

// takePrefetch claims the pending background prefetch for epoch e, waiting
// for it to finish. A run for a different epoch is dropped without
// waiting — its goroutine only warms the shared cache, which is harmless.
func (n *Node) takePrefetch(e uint64) *prefetchRun {
	pf := n.prefetch
	n.prefetch = nil
	if pf == nil || pf.epoch != e {
		return nil
	}
	<-pf.done
	return pf
}

// checkSignatures verifies every transaction signature in a block across
// the given number of workers.
func (n *Node) checkSignatures(b *types.Block, workers int) bool {
	if workers > len(b.Txs) {
		workers = len(b.Txs)
	}
	if workers <= 1 {
		for _, tx := range b.Txs {
			if crypto.VerifyTx(tx) != nil {
				return false
			}
		}
		return true
	}
	var bad atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !bad.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(b.Txs) {
					return
				}
				if crypto.VerifyTx(b.Txs[i]) != nil {
					bad.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return !bad.Load()
}

// Per-epoch scratch pools. Epochs allocate a results buffer sized to the
// transaction count and a 16-shard commit overlay; both are recycled
// across epochs (and across nodes — the pools are package-level, and the
// buffers carry no node identity).
var (
	simResultsPool sync.Pool
	overlayPool    = sync.Pool{New: func() any { return newOverlay() }}
)

// getResultsBuf returns a pooled simulation-results buffer with length n.
func getResultsBuf(n int) []*types.SimResult {
	if v := simResultsPool.Get(); v != nil {
		if buf := v.([]*types.SimResult); cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]*types.SimResult, n)
}

// putResultsBuf nils the buffer (dropping the sim references for the GC)
// and returns it to the pool.
func putResultsBuf(buf []*types.SimResult) {
	if buf == nil {
		return
	}
	for i := range buf {
		buf[i] = nil
	}
	simResultsPool.Put(buf[:0]) //nolint:staticcheck // slice headers are cheap relative to the backing array win
}

// reset clears the overlay's shard maps for reuse.
func (ov *overlay) reset() {
	for i := range ov.shards {
		clear(ov.shards[i].m)
	}
}

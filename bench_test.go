package nezha_test

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"github.com/nezha-dag/nezha/internal/bench"
	"github.com/nezha-dag/nezha/internal/contracts/smallbank"
	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/fail"
	"github.com/nezha-dag/nezha/internal/journal"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/mempool"
	"github.com/nezha-dag/nezha/internal/mpt"
	"github.com/nezha-dag/nezha/internal/occda"
	"github.com/nezha-dag/nezha/internal/statedb"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/workload"
)

// benchOpts shrinks experiments so a -bench=. pass stays tractable; run
// cmd/nezha-bench for the paper-parameter sweeps.
func benchOpts() bench.Options {
	o := bench.DefaultOptions().Quick()
	o.BlockSize = 100
	return o
}

// runExperiment wraps one table/figure regeneration per benchmark
// iteration.
func runExperiment(b *testing.B, name string) {
	b.Helper()
	e, err := bench.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	o := benchOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err := e.Run(o)
		if err != nil {
			b.Fatal(err)
		}
		if err := tbl.WriteText(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per table and figure of the paper's evaluation (§VI).

func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4") }
func BenchmarkFig9(b *testing.B)   { runExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { runExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { runExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { runExperiment(b, "fig12") }

// Ablation benches (DESIGN.md A1–A4).

func BenchmarkAblationReorder(b *testing.B) { runExperiment(b, "ablation-reorder") }
func BenchmarkAblationRank(b *testing.B)    { runExperiment(b, "ablation-rank") }
func BenchmarkAblationCommit(b *testing.B)  { runExperiment(b, "ablation-commit") }
func BenchmarkAblationGraph(b *testing.B)   { runExperiment(b, "ablation-graph") }

// Micro benchmarks of the core algorithm at the paper's epoch sizes.

// benchSims builds one SmallBank epoch of n transactions for the micro
// benchmarks.
func benchSims(b *testing.B, n int, skew float64) []*types.SimResult {
	b.Helper()
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 1, Accounts: 10_000, Skew: skew, InitialBalance: 10_000,
	})
	if err != nil {
		b.Fatal(err)
	}
	txs := gen.Txs(n)
	for i, tx := range txs {
		tx.ID = types.TxID(i)
	}
	snap, err := gen.Snapshot(txs)
	if err != nil {
		b.Fatal(err)
	}
	sims, err := workload.Simulate(txs, snap)
	if err != nil {
		b.Fatal(err)
	}
	return sims
}

func BenchmarkNezhaSchedule(b *testing.B) {
	for _, cfg := range []struct {
		omega int
		skew  float64
	}{{2, 0}, {12, 0}, {12, 0.6}, {12, 0.8}} {
		b.Run(fmt.Sprintf("omega=%d/skew=%.1f", cfg.omega, cfg.skew), func(b *testing.B) {
			sims := benchSims(b, cfg.omega*200, cfg.skew)
			sched := core.MustNewScheduler(core.DefaultConfig())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := sched.Schedule(sims); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(sims)), "txs/epoch")
		})
	}
}

// BenchmarkNezhaScheduleParallelism pits the sequential reference core
// (Parallelism=1) against the sharded/cluster-parallel core on one 4096-tx
// SmallBank epoch — the speedup headline of the parallel scheduling core.
// Both configurations produce byte-identical schedules (asserted by
// TestParallelScheduleMatchesSequential in internal/core).
func BenchmarkNezhaScheduleParallelism(b *testing.B) {
	sims := benchSims(b, 4096, 0.2)
	for _, par := range []int{1, 0} { // 1 = sequential reference, 0 = GOMAXPROCS
		name := "sequential"
		if par != 1 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Parallelism = par
			sched := core.MustNewScheduler(cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := sched.Schedule(sims); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(sims)), "txs/epoch")
		})
	}
}

// BenchmarkBuildACG covers both graph builders on the same 4096-tx epoch:
// the sequential reference and the key-sharded parallel builder.
func BenchmarkBuildACG(b *testing.B) {
	sims := benchSims(b, 4096, 0.2)
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.BuildACG(sims)
		}
	})
	b.Run("sharded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.BuildACGSharded(sims, runtime.GOMAXPROCS(0))
		}
	})
}

func BenchmarkAblationWriteMix(b *testing.B) { runExperiment(b, "ablation-writemix") }

func BenchmarkOCCAbortComparison(b *testing.B) { runExperiment(b, "occ-abort") }

// BenchmarkMVCCRead prices the execution read path over one hot SmallBank
// working set: "view" resolves one epoch's reads through the shared MVCC
// version cache (warm after the first pass — near-zero allocations).
func BenchmarkMVCCRead(b *testing.B) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 3, Accounts: 2_000, Skew: 0.6, InitialBalance: 10_000,
	})
	if err != nil {
		b.Fatal(err)
	}
	txs := gen.Txs(400)
	snap, err := gen.Snapshot(txs)
	if err != nil {
		b.Fatal(err)
	}
	var keys []types.Key
	for _, tx := range txs {
		keys = append(keys, smallbank.PredictCall(tx.Payload)...)
	}
	seed := make([]types.WriteEntry, 0, len(snap))
	for k, v := range snap {
		seed = append(seed, types.WriteEntry{Key: k, Value: v})
	}
	db := statedb.Open(kvstore.NewMemory(), mpt.EmptyRoot)
	if _, err := db.Commit(seed); err != nil {
		b.Fatal(err)
	}
	b.Run("view", func(b *testing.B) {
		db.View() // warm the store once so iterations measure steady state
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v := db.View()
			for _, k := range keys {
				if _, err := v.Get(k); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(keys)), "reads/epoch")
	})
}

// BenchmarkPrefetch prices the prefetcher stage's two steady-state paths:
// "skip-warm" re-offers already-cached keys (the common case once the
// working set is resident) and "hit-read" resolves prefetched keys
// through a view — the latency execution actually sees on a prefetch hit.
func BenchmarkPrefetch(b *testing.B) {
	db := statedb.Open(kvstore.NewMemory(), mpt.EmptyRoot)
	const n = 4096
	writes := make([]types.WriteEntry, n)
	keys := make([]types.Key, n)
	for i := range writes {
		keys[i] = types.KeyFromUint64(uint64(i))
		writes[i] = types.WriteEntry{Key: keys[i], Value: []byte{byte(i), byte(i >> 8)}}
	}
	if _, err := db.Commit(writes); err != nil {
		b.Fatal(err)
	}
	for _, k := range keys {
		if err := db.Prefetch(k); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("skip-warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := db.Prefetch(keys[i%n]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit-read", func(b *testing.B) {
		v := db.View()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := v.Get(keys[i%n]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOCCDA prices the dependency-aware hybrid at the paper's epoch
// sizes against the contention levels where plain OCC degrades — the
// rescue pass (PhaseBreakdown.Cycle) is the cost being bought.
func BenchmarkOCCDA(b *testing.B) {
	for _, cfg := range []struct {
		omega int
		skew  float64
	}{{2, 0}, {12, 0.6}, {12, 0.8}} {
		b.Run(fmt.Sprintf("omega=%d/skew=%.1f", cfg.omega, cfg.skew), func(b *testing.B) {
			sims := benchSims(b, cfg.omega*200, cfg.skew)
			sched := occda.NewScheduler()
			b.ReportAllocs()
			b.ResetTimer()
			var aborted int
			for i := 0; i < b.N; i++ {
				out, _, err := sched.Schedule(sims)
				if err != nil {
					b.Fatal(err)
				}
				aborted = out.AbortedCount()
			}
			b.ReportMetric(float64(len(sims)), "txs/epoch")
			b.ReportMetric(float64(aborted), "aborts/epoch")
		})
	}
}

// BenchmarkFailpointDisabled guards internal/fail's core promise from the
// benchstat PR gate: a disarmed failpoint site — and they sit on the WAL
// append, the persist path, and every p2p delivery — costs one atomic
// load, a few nanoseconds and zero allocations. A regression here taxes
// every hot path in the node.
func BenchmarkFailpointDisabled(b *testing.B) {
	fail.Reset()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := fail.Hit(fail.BenchDisarmed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalDisabled guards the flight recorder's parallel promise:
// with recording off, an Emit on the commit path costs one atomic load —
// the same budget as a disarmed failpoint — so the instrumentation can
// stay compiled into every stage handoff permanently.
func BenchmarkJournalDisabled(b *testing.B) {
	journal.Disable()
	r := journal.For("bench-disabled")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(journal.NodeEpochCommit, uint64(i))
	}
}

// BenchmarkJournalEmit is the armed path: one atomic sequence
// reservation plus a slot-mutex payload copy, at most one allocation per
// event (the variadic field slice when it escapes).
func BenchmarkJournalEmit(b *testing.B) {
	journal.Enable()
	defer journal.Disable()
	r := journal.For("bench-armed")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(journal.NodeEpochCommit, uint64(i),
			journal.F("root", uint64(i)*0x9e3779b9), journal.F("committed", 40))
	}
}

// BenchmarkMempoolAdmit is the ingestion front end's admission hot path:
// one transaction through the shard lookup, nonce-queue insert, and
// metric updates. This is per-transaction cost at the node's front door,
// so it joins the benchstat PR gate.
func BenchmarkMempoolAdmit(b *testing.B) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 1, Accounts: 10_000, Skew: 0.6, InitialBalance: 10_000,
		ReadOnlyRatio: -1, PerSenderNonces: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	txs := gen.Txs(b.N)
	p := mempool.New(mempool.Config{ShardCap: -1, SenderCap: -1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Admit(txs[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStressAssemble measures block assembly out of a loaded pool —
// the peek that runs under the miner's lock every block: per-sender
// nonce runs ordered by priority, truncated to the block size.
func BenchmarkStressAssemble(b *testing.B) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 2, Accounts: 2_000, Skew: 0.6, InitialBalance: 10_000,
		ReadOnlyRatio: -1, PerSenderNonces: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := mempool.New(mempool.Config{ShardCap: -1, SenderCap: -1, StrictNonce: true})
	for _, tx := range gen.Txs(8_192) {
		if err := p.Admit(tx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := p.Assemble(200); len(got) == 0 {
			b.Fatal("empty assembly from a loaded pool")
		}
	}
}

// BenchmarkStressAdmitBatch is the gossip-delivery shape: a 500-tx batch
// admitted in one call (the signature-verification fan-out is exercised
// by the mempool package's own tests; here signatures are off, matching
// the scheduler-focused benches).
func BenchmarkStressAdmitBatch(b *testing.B) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 3, Accounts: 10_000, Skew: 0.6, InitialBalance: 10_000,
		ReadOnlyRatio: -1, PerSenderNonces: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	const batch = 500
	txs := gen.Txs(b.N*batch + batch)
	p := mempool.New(mempool.Config{ShardCap: -1, SenderCap: -1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, _ := p.AdmitBatch(txs[i*batch : (i+1)*batch]); n != batch {
			b.Fatalf("admitted %d of %d", n, batch)
		}
	}
}

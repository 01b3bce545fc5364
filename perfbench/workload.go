package main

import "fmt"

// kind selects how a workload reaches the node.
type kind int

const (
	// epochReplay hands pre-assembled blocks to one node through
	// Node.ProcessAssembledEpoch, one call per epoch.
	epochReplay kind = iota
	// ingest feeds signed transactions through each replica's mempool,
	// mines blocks with a logical clock and lets every replica process the
	// epochs its ledger completes.
	ingest
)

// WorkloadConfig is one named benchmark workload: a fixed value, so the
// same name and seed always give the same inputs.
type WorkloadConfig struct {
	Name string
	// Why is the one-line reason the workload exists (also in
	// BENCHMARK.json).
	Why  string
	Kind kind
	// RoundSeconds is how long one round takes on an idle 2-vCPU
	// reference machine; a run does ceil(--seconds / RoundSeconds) rounds,
	// so its work, and every percentile's position in it, is fixed by the
	// arguments while it still lasts about --seconds there.
	RoundSeconds float64

	// SmallBank shape shared by every workload.
	Accounts  uint64
	Skew      float64
	BlockSize int
	Sign      bool

	// Epoch replay: Omega blocks per epoch, Epochs per round, an LSM store
	// in a fresh directory per round when Durable, and the opening epochs
	// replayed under the schedule-verifying oracle.
	Omega        int
	Epochs       int
	Durable      bool
	ReplayEpochs int

	// Ingest: Replicas nodes each with a mempool over Chains OHIE chains,
	// InFlight offered-but-unresolved transactions kept in the closed
	// loop, Offered transactions per round.
	Replicas int
	Chains   int
	InFlight int
	Offered  int
}

// workloads is the registry, in BENCHMARK.json order. A round is a fixed
// amount of work on fresh nodes, with inputs drawn from the run's seed and
// the round number, so round r of any two runs with the same seed must
// reach the same final state root.
var workloads = []WorkloadConfig{
	{
		Name:         "epoch-contended",
		Why:          "scheduling-bound: omega=12 (2400 txs/epoch), Zipf 0.8, memory store; ~37% aborts; ACG, rank division and sort dominate",
		Kind:         epochReplay,
		Accounts:     10_000,
		Skew:         0.8,
		BlockSize:    200,
		Omega:        12,
		Epochs:       50,
		ReplayEpochs: 3,
		RoundSeconds: 4,
	},
	{
		Name:      "epoch-durable",
		Why:       "storage-bound: omega=2 (400 txs/epoch), uniform, LSM store in a fresh dir; commit and Store.Apply dominate, flushes and compactions recur",
		Kind:      epochReplay,
		Accounts:  10_000,
		Skew:      0,
		BlockSize: 200,
		Omega:     2,
		// The LSM compacts about every 65 epochs here, each compaction
		// slower than the last. 350 epochs hold five compactions and 1% of
		// them is 3.5 epochs, so epoch p99 falls among each round's second
		// compaction rather than on the edge between two compactions.
		Epochs:       350,
		Durable:      true,
		ReplayEpochs: 10,
		RoundSeconds: 8.5,
	},
	{
		Name:      "ingest-signed",
		Why:       "ingestion path: 2 replicas with mempools, 4 chains, ed25519-signed SmallBank, Zipf 0.6, closed loop of 3200 txs in flight, deterministic mining",
		Kind:      ingest,
		Accounts:  10_000,
		Skew:      0.6,
		BlockSize: 200,
		Sign:      true,
		Replicas:  2,
		Chains:    4,
		InFlight:  3200,
		Offered:   12_000,
		// 15 epochs a round: 7 rounds give epoch_ms_p95 over 210 samples
		// (both replicas).
		RoundSeconds: 3.3,
	},
}

func lookupWorkload(name string) (WorkloadConfig, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return WorkloadConfig{}, fmt.Errorf("unknown workload %q", name)
}

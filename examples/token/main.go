// Token: the ERC20-style workload through the full pipeline — a second
// contract domain beyond the paper's SmallBank, with a different conflict
// structure (transfers REVERT on insufficient funds, exercising the
// execution-abort path; mints contend on one global supply cell).
//
//	go run ./examples/token -txs 400 -skew 0.8 -mint 0.2
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"github.com/nezha-dag/nezha/internal/consensus"
	"github.com/nezha-dag/nezha/internal/contracts/token"
	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/node"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/workload"
)

func main() {
	var (
		txCount = flag.Int("txs", 400, "transactions per epoch")
		skew    = flag.Float64("skew", 0.8, "Zipfian skew")
		mint    = flag.Float64("mint", 0.2, "fraction of mint operations")
	)
	flag.Parse()
	if err := run(*txCount, *skew, *mint); err != nil {
		log.Fatal(err)
	}
}

func run(txCount int, skew, mint float64) error {
	gen, err := workload.NewTokenGenerator(workload.TokenConfig{
		Seed: 5, Accounts: 1_000, Skew: skew, InitialBalance: 60, MintRatio: mint,
	})
	if err != nil {
		return err
	}
	txs := gen.Txs(txCount)
	genesis, err := gen.Genesis(txs)
	if err != nil {
		return err
	}

	n, err := node.New("token-node", kvstore.NewMemory(), node.Config{
		Consensus:     consensus.Params{Chains: 2, DifficultyBits: 0},
		Scheduler:     core.MustNewScheduler(core.DefaultConfig()),
		Contracts:     map[types.Address][]byte{token.ContractAddress: token.Program()},
		GenesisWrites: genesis,
	})
	if err != nil {
		return err
	}

	miner := node.NewMiner(n, types.AddressFromUint64(1), (txCount+1)/2)
	miner.AddTxs(txs)
	start := time.Now()
	for n.NextEpoch() == 1 {
		b, err := miner.Mine(context.Background())
		if err != nil {
			return err
		}
		if err := n.SubmitBlock(b); err != nil {
			continue
		}
		if _, err := n.ProcessReadyEpochs(); err != nil {
			return err
		}
	}

	stats := n.Metrics().Epochs()[0]
	fmt.Printf("token workload: %d txs at skew %.1f (mint ratio %.1f)\n", stats.Txs, skew, mint)
	fmt.Printf("  committed %d, scheduler aborts %d, execution reverts %d\n",
		stats.Committed, stats.Aborted, stats.ExecutionFailed)
	fmt.Printf("  stages: execute %v, schedule %v, commit %v (wall %v)\n",
		stats.Stage("execute").Duration.Round(time.Microsecond), stats.Stage("schedule").Duration.Round(time.Microsecond),
		stats.Stage("commit").Duration.Round(time.Microsecond), time.Since(start).Round(time.Millisecond))

	supply, err := n.State().Get(token.SupplyKey())
	if err != nil {
		return err
	}
	fmt.Printf("  total supply after epoch: %d\n", workload.DecodeBalance(supply))
	fmt.Println("note: reverting transfers surface as execution aborts — a failure mode SmallBank's saturating arithmetic never triggers")
	return nil
}

package node

import (
	"context"
	"sync"

	"github.com/nezha-dag/nezha/internal/consensus"
	"github.com/nezha-dag/nezha/internal/mempool"
	"github.com/nezha-dag/nezha/internal/types"
)

// Miner drives block production for one node: it fronts an
// internal/mempool.Pool, assembles block templates from the pool's
// deterministic priority/nonce order over the node's current tips and
// latest processed state root, and runs the OHIE proof of work.
//
// Blocks are stamped by a logical clock — the miner's attempt counter —
// rather than the wall clock, so the same inputs mine the same blocks and
// land on the same chains every run.
type Miner struct {
	node      *Node
	addr      types.Address
	blockSize int
	mp        *mempool.Pool

	mu       sync.Mutex
	seed     uint64
	attempts uint64
}

// NewMiner attaches a miner to a node. blockSize caps transactions per
// block (the paper uses 200, §VI-A). The pool takes Config.Mempool, or an
// unbounded pool (no shard or sender caps) when that is nil.
func NewMiner(n *Node, addr types.Address, blockSize int) *Miner {
	mpCfg := mempool.Config{ShardCap: -1, SenderCap: -1}
	if n.cfg.Mempool != nil {
		mpCfg = *n.cfg.Mempool
	}
	if mpCfg.Tag == "" {
		mpCfg.Tag = n.id
	}
	return &Miner{
		node:      n,
		addr:      addr,
		blockSize: blockSize,
		mp:        mempool.New(mpCfg),
		seed:      uint64(types.HashBytes(addr[:])[0]) << 32, // disjoint nonce ranges per miner
	}
}

// Pool exposes the miner's admission-controlled mempool. Submitters that
// want typed backpressure — rather than AddTxs's fire-and-forget — admit
// through it directly.
func (m *Miner) Pool() *mempool.Pool { return m.mp }

// AddTxs admits transactions as one batch. Rejections (duplicates, rate
// limits, capacity) are counted in nezha_mempool_dropped_total rather
// than reported — gossip redelivery is not a caller that can react.
func (m *Miner) AddTxs(txs []*types.Transaction) {
	m.mp.AdmitBatch(txs)
}

// PoolSize returns the number of queued transactions.
func (m *Miner) PoolSize() int { return m.mp.Len() }

// Mine assembles and mines one block. The transactions leave the pool only
// on success; a cancelled search leaves them queued.
func (m *Miner) Mine(ctx context.Context) (*types.Block, error) {
	m.mu.Lock()
	// Assemble is a peek: the transactions stay queued until the search
	// succeeds, so a cancelled attempt forfeits nothing.
	txs := m.mp.Assemble(m.blockSize)
	m.seed += 1_000_000 // fresh nonce range per attempt
	m.attempts++
	seed, clock := m.seed, m.attempts
	m.mu.Unlock()

	b, err := consensus.Mine(ctx, consensus.Template{
		Ledger:    m.node.Ledger(),
		StateRoot: m.node.StateRoot(),
		Txs:       txs,
		Miner:     m.addr,
		Time:      clock,
		NonceSeed: seed,
	}, m.node.cfg.Consensus)
	if err != nil {
		return nil, err
	}
	// Success: advance each sender's inclusion floor past the mined
	// nonces so gossip echoes bounce off admission.
	m.mp.MarkIncluded(txs)
	return b, nil
}

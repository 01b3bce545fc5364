// Package statedb layers the blockchain state abstraction over the Merkle
// Patricia Trie and the key-value store: authenticated roots per epoch,
// copy-free MVCC views for speculative execution (every transaction of
// epoch e reads the state of epoch e-1, §III-B), and batched commitment
// ("each node applies the write values … and the updated elements are
// then flushed to the underlying database", §III-B).
package statedb

import (
	"fmt"
	"sync"

	"github.com/nezha-dag/nezha/internal/journal"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/mpt"
	"github.com/nezha-dag/nezha/internal/mvcc"
	"github.com/nezha-dag/nezha/internal/types"
)

// Reader is the read API execution runs against: an epoch's copy-free
// mvcc.View for speculative execution, or the StateDB head itself for the
// serial baseline. It matches vm.StateReader.
type Reader interface {
	Get(k types.Key) ([]byte, error)
}

// StateDB is the mutable head state. A single writer (the commit phase)
// calls Commit; any number of readers use Views. StateDB itself is safe
// for concurrent use.
type StateDB struct {
	mu    sync.RWMutex
	store kvstore.Store
	trie  *mpt.Trie
	root  types.Hash
	// mv is the multi-version cache in front of the trie, created on the
	// first View or Prefetch call (head-only users such as the serial
	// baseline never pay for it). Once it exists, every Commit threads
	// its writes through it so views stay consistent with the trie.
	mv *mvcc.Store
	// jr, when set, receives state/* journal events at the MVCC epoch
	// boundaries (reserve, commit, rollback, watermark). The mvcc package
	// itself is determinism-critical code the flight recorder must stay
	// out of, so the observation happens here at its call sites.
	jr *journal.Recorder
}

// SetJournal attaches a flight recorder; subsequent commits and watermark
// advances emit state/* events into it. Pass nil to detach.
func (s *StateDB) SetJournal(r *journal.Recorder) {
	s.mu.Lock()
	s.jr = r
	s.mu.Unlock()
}

// Open returns a StateDB over the given node store, rooted at root
// (mpt.EmptyRoot for a fresh chain).
func Open(store kvstore.Store, root types.Hash) *StateDB {
	return &StateDB{store: store, trie: mpt.New(root, store), root: root}
}

// Root returns the current state root.
func (s *StateDB) Root() types.Hash {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.root
}

// Get reads a key from the head state.
func (s *StateDB) Get(k types.Key) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, _, err := s.trie.Get(k[:])
	return v, err
}

// View returns a copy-free MVCC reader pinned at the current state — the
// epoch snapshot speculative execution reads. It shares the version cache
// with every other view and with the commit path, so nothing is
// duplicated per epoch; the view stays readable while a later Commit runs
// (it keeps resolving pre-commit values) until AdvanceWatermark
// garbage-collects its generation.
func (s *StateDB) View() *mvcc.View {
	s.mu.RLock()
	mv := s.mv
	if mv != nil {
		v := mv.Head() // generation is stable under the read lock
		s.mu.RUnlock()
		return v
	}
	s.mu.RUnlock()
	return s.ensureMVCC().Head()
}

// ensureMVCC creates the multi-version store on first use. The backend
// loader reads through StateDB.Get, whose read lock serializes it against
// the trie flush; the mvcc read path discards loads that straddle a
// commit (see the mvcc package comment).
func (s *StateDB) ensureMVCC() *mvcc.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mv == nil {
		s.mv = mvcc.New(0, s.Get)
	}
	return s.mv
}

// Prefetch pulls a cold key into the version cache (the pipeline's
// prefetcher stage walks the next epoch's predicted read sets with it,
// overlapped with the current epoch's commit).
func (s *StateDB) Prefetch(k types.Key) error {
	s.mu.RLock()
	mv := s.mv
	s.mu.RUnlock()
	if mv == nil {
		mv = s.ensureMVCC()
	}
	return mv.Prefetch(k)
}

// AdvanceWatermark moves the MVCC garbage-collection watermark up to the
// current committed generation — the caller's promise that no view older
// than the present state is still being read (the node makes it once an
// epoch has persisted). Returns the number of folded versions.
func (s *StateDB) AdvanceWatermark() int {
	s.mu.RLock()
	mv, jr := s.mv, s.jr
	gen := uint64(0)
	if mv != nil {
		gen = mv.Gen()
	}
	s.mu.RUnlock()
	if mv == nil {
		return 0
	}
	folded := mv.SetWatermark(gen)
	// Context event, not an alignment key: generations restart from zero
	// when a node reopens, so they are not comparable across replicas.
	jr.Emit(journal.StateWatermark, gen, journal.F("folded", uint64(folded)))
	return folded
}

// MVCCStats snapshots the version cache's counters; ok is false until the
// first View call creates the cache.
func (s *StateDB) MVCCStats() (stats mvcc.Stats, ok bool) {
	s.mu.RLock()
	mv := s.mv
	s.mu.RUnlock()
	if mv == nil {
		return mvcc.Stats{}, false
	}
	return mv.Stats(), true
}

// Commit applies the writes of one epoch to the trie, persists the new
// nodes, and returns the new root. Writes must already be conflict-free
// (distinct keys or intentional last-writer-wins order); the concurrency-
// control layer guarantees that.
//
// When the MVCC cache exists the commit follows its protocol: reserve the
// written keys, append the new versions while the trie still resolves
// pre-flush values, flush, then release the reservations. Readers pinned
// before the commit keep seeing the old values throughout.
func (s *StateDB) Commit(writes []types.WriteEntry) (types.Hash, error) {
	s.mu.Lock()
	mv := s.mv
	if mv != nil && len(writes) > 0 {
		keys := make([]types.Key, len(writes))
		for i, w := range writes {
			keys[i] = w.Key
		}
		mv.ReserveEpoch(keys)
		defer mv.ReleaseEpoch()
		s.jr.Emit(journal.StateReserve, mv.Gen(), journal.F("keys", uint64(len(keys))))
		// Pre-flush trie reads, under the already-held write lock.
		load := func(k types.Key) ([]byte, error) {
			v, _, err := s.trie.Get(k[:])
			return v, err
		}
		if _, err := mv.CommitEpoch(writes, load); err != nil {
			s.mu.Unlock()
			return types.Hash{}, err
		}
	}
	defer s.mu.Unlock()
	// A failed flush must also unwind the versions staged above: the
	// writes never reached the trie, and a retried epoch reading a view
	// would otherwise see phantom state no other node computed.
	rollback := func() {
		if mv != nil && len(writes) > 0 {
			mv.RollbackEpoch(writes)
			s.jr.Emit(journal.StateRollback, mv.Gen(), journal.F("writes", uint64(len(writes))))
		}
	}
	for _, w := range writes {
		if err := s.trie.Put(w.Key[:], w.Value); err != nil {
			rollback()
			return types.Hash{}, fmt.Errorf("statedb: apply write: %w", err)
		}
	}
	root, err := s.trie.Commit()
	if err != nil {
		rollback()
		return types.Hash{}, err
	}
	s.root = root
	gen := uint64(0)
	if mv != nil {
		gen = mv.Gen()
	}
	s.jr.Emit(journal.StateCommit, gen,
		journal.F("writes", uint64(len(writes))), journal.F("root", journal.FoldBytes(root[:])))
	return root, nil
}

// Iterate walks the head state in key order (test and tooling support).
func (s *StateDB) Iterate(fn func(k types.Key, v []byte) bool) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.trie.Iterate(func(key, value []byte) bool {
		var k types.Key
		if len(key) != types.KeyLen {
			// Foreign entries (non-state keys) are skipped.
			return true
		}
		copy(k[:], key)
		return fn(k, value)
	})
}

// Both read paths satisfy the shared Reader API.
var (
	_ Reader = (*StateDB)(nil)
	_ Reader = (*mvcc.View)(nil)
)

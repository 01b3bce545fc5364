package statedb

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/mpt"
	"github.com/nezha-dag/nezha/internal/mvcc"
	"github.com/nezha-dag/nezha/internal/types"
)

func TestViewIsolationAcrossCommit(t *testing.T) {
	db := Open(kvstore.NewMemory(), mpt.EmptyRoot)
	if _, err := db.Commit([]types.WriteEntry{{Key: keyN(1), Value: []byte("old")}}); err != nil {
		t.Fatal(err)
	}
	view := db.View()

	if _, err := db.Commit([]types.WriteEntry{{Key: keyN(1), Value: []byte("new")}, {Key: keyN(2), Value: []byte("x")}}); err != nil {
		t.Fatal(err)
	}

	// The old view keeps resolving pre-commit values — including for
	// key 2, which it never touched before the commit (the eager base
	// load in CommitEpoch covers cold keys).
	if v, err := view.Get(keyN(1)); err != nil || string(v) != "old" {
		t.Fatalf("view read = %q, %v; want old", v, err)
	}
	if v, err := view.Get(keyN(2)); err != nil || v != nil {
		t.Fatalf("view read of cold key = %q, %v; want nil", v, err)
	}
	head := db.View()
	if v, err := head.Get(keyN(1)); err != nil || string(v) != "new" {
		t.Fatalf("head view read = %q, %v; want new", v, err)
	}
	if v, err := head.Get(keyN(2)); err != nil || string(v) != "x" {
		t.Fatalf("head view read = %q, %v; want x", v, err)
	}
}

// TestViewMatchesSnapshot drives the view read path over a commit
// sequence and asserts value-for-value agreement, at every step, with a
// plain map holding the expected snapshot of the state.
func TestViewMatchesSnapshot(t *testing.T) {
	db := Open(kvstore.NewMemory(), mpt.EmptyRoot)
	want := make(map[types.Key][]byte)
	for round := uint64(0); round < 8; round++ {
		var writes []types.WriteEntry
		for i := uint64(0); i < 16; i++ {
			if (round+i)%3 == 0 {
				writes = append(writes, types.WriteEntry{
					Key:   keyN(i),
					Value: []byte(fmt.Sprintf("r%d-k%d", round, i)),
				})
			}
		}
		if _, err := db.Commit(writes); err != nil {
			t.Fatal(err)
		}
		for _, w := range writes {
			want[w.Key] = w.Value
		}
		view := db.View()
		for i := uint64(0); i < 20; i++ {
			vv, err := view.Get(keyN(i))
			if err != nil {
				t.Fatalf("round %d key %d: view err %v", round, i, err)
			}
			if !bytes.Equal(vv, want[keyN(i)]) {
				t.Fatalf("round %d key %d: view %q, want %q", round, i, vv, want[keyN(i)])
			}
		}
	}
}

func TestAdvanceWatermarkInvalidatesOldViews(t *testing.T) {
	db := Open(kvstore.NewMemory(), mpt.EmptyRoot)
	if _, err := db.Commit([]types.WriteEntry{{Key: keyN(1), Value: []byte("v1")}}); err != nil {
		t.Fatal(err)
	}
	old := db.View()
	if _, err := old.Get(keyN(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Commit([]types.WriteEntry{{Key: keyN(1), Value: []byte("v2")}}); err != nil {
		t.Fatal(err)
	}
	if folded := db.AdvanceWatermark(); folded == 0 {
		t.Fatal("expected the old version to fold")
	}
	if _, err := old.Get(keyN(1)); !errors.Is(err, mvcc.ErrBelowWatermark) {
		t.Fatalf("stale view err = %v, want ErrBelowWatermark", err)
	}
	if v, err := db.View().Get(keyN(1)); err != nil || string(v) != "v2" {
		t.Fatalf("head view after gc = %q, %v", v, err)
	}
}

func TestPrefetchWarmsView(t *testing.T) {
	db := Open(kvstore.NewMemory(), mpt.EmptyRoot)
	if _, err := db.Commit([]types.WriteEntry{{Key: keyN(7), Value: []byte("warm")}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Prefetch(keyN(7)); err != nil {
		t.Fatal(err)
	}
	if v, err := db.View().Get(keyN(7)); err != nil || string(v) != "warm" {
		t.Fatalf("view read = %q, %v", v, err)
	}
	stats, ok := db.MVCCStats()
	if !ok {
		t.Fatal("stats missing after prefetch")
	}
	if stats.Prefetched != 1 || stats.PrefetchHits != 1 || stats.Misses != 0 {
		t.Fatalf("stats = %+v; want 1 prefetched, 1 hit, 0 misses", stats)
	}
}

func TestMVCCStatsAbsentWithoutViews(t *testing.T) {
	db := Open(kvstore.NewMemory(), mpt.EmptyRoot)
	if _, err := db.Commit([]types.WriteEntry{{Key: keyN(1), Value: []byte("a")}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.MVCCStats(); ok {
		t.Fatal("head-only use must not create the mvcc store")
	}
	if db.AdvanceWatermark() != 0 {
		t.Fatal("watermark advance without a store must be a no-op")
	}
}

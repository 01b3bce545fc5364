package statedb

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/mpt"
	"github.com/nezha-dag/nezha/internal/types"
)

func keyN(n uint64) types.Key { return types.KeyFromUint64(n) }

func TestOpenEmpty(t *testing.T) {
	db := Open(kvstore.NewMemory(), mpt.EmptyRoot)
	if db.Root() != mpt.EmptyRoot {
		t.Fatal("fresh db root not empty")
	}
	v, err := db.Get(keyN(1))
	if err != nil || v != nil {
		t.Fatalf("get on empty = %q, %v", v, err)
	}
}

func TestCommitAndRead(t *testing.T) {
	db := Open(kvstore.NewMemory(), mpt.EmptyRoot)
	root, err := db.Commit([]types.WriteEntry{
		{Key: keyN(1), Value: []byte("a")},
		{Key: keyN(2), Value: []byte("b")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if root == mpt.EmptyRoot || root != db.Root() {
		t.Fatal("root not updated")
	}
	v, err := db.Get(keyN(1))
	if err != nil || string(v) != "a" {
		t.Fatalf("get = %q, %v", v, err)
	}
}

func TestRootsDeterministicAcrossStores(t *testing.T) {
	// Two independent databases applying the same writes must converge to
	// the same root — the cross-node state agreement the validation phase
	// checks (§III-B).
	writes := []types.WriteEntry{
		{Key: keyN(3), Value: []byte("x")},
		{Key: keyN(1), Value: []byte("y")},
		{Key: keyN(2), Value: []byte("z")},
	}
	db1 := Open(kvstore.NewMemory(), mpt.EmptyRoot)
	db2 := Open(kvstore.NewMemory(), mpt.EmptyRoot)
	r1, err := db1.Commit(writes)
	if err != nil {
		t.Fatal(err)
	}
	// Different grouping of the same writes.
	if _, err := db2.Commit(writes[:1]); err != nil {
		t.Fatal(err)
	}
	r2, err := db2.Commit(writes[1:])
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("roots diverge: %s vs %s", r1, r2)
	}
}

func TestReopenFromPersistedRoot(t *testing.T) {
	dir := t.TempDir()
	store, err := kvstore.OpenLSM(dir, kvstore.DefaultLSMOptions())
	if err != nil {
		t.Fatal(err)
	}
	db := Open(store, mpt.EmptyRoot)
	root, err := db.Commit([]types.WriteEntry{{Key: keyN(7), Value: []byte("persisted")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := kvstore.OpenLSM(dir, kvstore.DefaultLSMOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	db2 := Open(store2, root)
	v, err := db2.Get(keyN(7))
	if err != nil || string(v) != "persisted" {
		t.Fatalf("reopened get = %q, %v", v, err)
	}
}

func TestIterate(t *testing.T) {
	db := Open(kvstore.NewMemory(), mpt.EmptyRoot)
	want := map[types.Key]string{}
	var writes []types.WriteEntry
	for i := uint64(0); i < 20; i++ {
		k := keyN(i)
		want[k] = fmt.Sprintf("v%d", i)
		writes = append(writes, types.WriteEntry{Key: k, Value: []byte(want[k])})
	}
	if _, err := db.Commit(writes); err != nil {
		t.Fatal(err)
	}
	got := map[types.Key]string{}
	var prev types.Key
	first := true
	err := db.Iterate(func(k types.Key, v []byte) bool {
		if !first && !prev.Less(k) {
			t.Fatalf("iteration out of order")
		}
		prev, first = k, false
		got[k] = string(v)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("iterated %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %s: %q != %q", k, got[k], v)
		}
	}
}

func TestCommitEmptyWriteSet(t *testing.T) {
	db := Open(kvstore.NewMemory(), mpt.EmptyRoot)
	r1, err := db.Commit([]types.WriteEntry{{Key: keyN(1), Value: []byte("v")}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := db.Commit(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("empty commit changed the root")
	}
}

func TestDeleteViaEmptyValue(t *testing.T) {
	db := Open(kvstore.NewMemory(), mpt.EmptyRoot)
	if _, err := db.Commit([]types.WriteEntry{{Key: keyN(1), Value: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	root, err := db.Commit([]types.WriteEntry{{Key: keyN(1), Value: nil}})
	if err != nil {
		t.Fatal(err)
	}
	if root != mpt.EmptyRoot {
		t.Fatal("deleting the only key must restore the empty root")
	}
	v, err := db.Get(keyN(1))
	if err != nil || v != nil {
		t.Fatalf("deleted key = %q", v)
	}
	if !bytes.Equal(nil, v) {
		t.Fatal("deleted value not nil")
	}
}

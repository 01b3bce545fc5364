package check

import (
	"strings"
	"testing"

	"github.com/nezha-dag/nezha/internal/statedb"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/vm"
)

// TestExecDiffCleanSweep: the MVCC executor and the plain-map reference
// agree across every generator shape over multiple evolving epochs. The
// full-depth sweep runs in CI (`nezha-check execdiff`); this keeps a small
// always-on slice in `go test`.
func TestExecDiffCleanSweep(t *testing.T) {
	rep := RunExecDiffSweep(ExecDiffRunConfig{Seeds: 2, Epochs: 3, Txs: 128, Keys: 32})
	if rep.Failed() {
		t.Fatal(rep.Summary())
	}
	if rep.Trials != 2*len(Profiles()) {
		t.Fatalf("trials = %d, want %d", rep.Trials, 2*len(Profiles()))
	}
}

// TestExecDiffDeterministic: the same config replays to the same verdict —
// the sweep is seed-replayable like the scheduler differential.
func TestExecDiffDeterministic(t *testing.T) {
	cfg := ExecDiffConfig{Gen: GenConfig{Shape: ShapeZipf, Skew: 0.9, ReadRatio: 0.5, Seed: 42, Txs: 96, Keys: 16}, Epochs: 3}
	if f := RunExecDiff(cfg); f != nil {
		t.Fatal(f)
	}
	if f := RunExecDiff(cfg); f != nil {
		t.Fatal(f)
	}
}

// TestExecDiffCatchesDivergence is the meta-test for the read comparison:
// a corrupted reference (one stray value slipped into its map between
// genesis and the first epoch) must be caught as a read divergence —
// proving the harness detects exactly the class of bug it exists for.
func TestExecDiffCatchesDivergence(t *testing.T) {
	cfg := ExecDiffConfig{Gen: GenConfig{Shape: ShapeUniform, ReadRatio: 0.9, Seed: 7, Txs: 64, Keys: 8}}.withDefaults()
	d, err := newExecDiff(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the reference's copy of a key every template reads.
	d.ref[types.KeyFromUint64(0)] = []byte("corrupt")
	_, templates := Generate(cfg.Gen)
	a, err := execEpoch(d.db.View(), templates, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := execEpoch(vm.MapReader(d.ref), templates, 0)
	if err != nil {
		t.Fatal(err)
	}
	fail := diffSims(a, b, 0)
	if fail == nil {
		t.Fatal("corrupted reference not detected")
	}
	if fail.Kind != FailExecDiff {
		t.Fatalf("kind = %s, want %s", fail.Kind, FailExecDiff)
	}
}

// TestExecDiffCatchesCommittedCorruption is the meta-test for the
// post-commit state comparison: a wrong write planted in the MVCC
// database after the epoch's reads were compared, in a one-epoch run, is
// invisible to every read check — only the state comparison can report it.
func TestExecDiffCatchesCommittedCorruption(t *testing.T) {
	cfg := ExecDiffConfig{Gen: GenConfig{Shape: ShapeUniform, ReadRatio: 0.5, Seed: 7, Txs: 64, Keys: 8}, Epochs: 1}.withDefaults()
	d, err := newExecDiff(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f := d.run(); f != nil {
		t.Fatalf("clean run diverged: %v", f)
	}
	d, err = newExecDiff(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.afterCommit = func(db *statedb.StateDB) error {
		_, err := db.Commit([]types.WriteEntry{{Key: types.KeyFromUint64(3), Value: []byte("planted")}})
		return err
	}
	fail := d.run()
	if fail == nil {
		t.Fatal("planted committed write not detected")
	}
	if fail.Kind != FailExecDiff || !strings.Contains(fail.Detail, "state") {
		t.Fatalf("failure = %v, want a %s state divergence", fail, FailExecDiff)
	}
}

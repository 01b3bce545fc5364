package check

// The executor differential: the same multi-epoch adversarial workload
// executed twice — once reading through the MVCC version cache
// (statedb.View, the pipeline's executor), once against a plain map that
// serves as the independent serial reference — must observe identical
// read values, produce identical schedules at every parallelism level,
// and hold identical state after every commit: the reference applies
// core.CommitState to its map, and the StateDB's committed contents must
// equal it key for key. Unlike the single-epoch scheduler differential
// (driver.go), state here EVOLVES: epoch e's writes are epoch e+1's read
// values, so a stale version, a phantom from an unreleased reservation,
// or an over-eager GC fold shows up as a divergence within a few epochs.

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/mpt"
	"github.com/nezha-dag/nezha/internal/node"
	"github.com/nezha-dag/nezha/internal/statedb"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/vm"
)

// FailExecDiff: the MVCC executor diverged from the plain-map reference
// (read values or post-commit state).
const FailExecDiff FailureKind = "exec-divergence"

// ExecDiffConfig configures one executor-differential run.
type ExecDiffConfig struct {
	// Gen is the epoch template; epoch e regenerates with Seed+e, so the
	// footprints differ per epoch but replay from one seed.
	Gen GenConfig
	// Epochs is the number of committed generations. Defaults to 4.
	Epochs int
	// Parallelisms are the scheduler fan-outs compared per epoch.
	// Defaults to 1, 2, 4, 8.
	Parallelisms []int
	// Workers is the commit fan-out. Defaults to 4.
	Workers int
}

func (c ExecDiffConfig) withDefaults() ExecDiffConfig {
	c.Gen = c.Gen.withDefaults()
	if c.Epochs == 0 {
		c.Epochs = 4
	}
	if len(c.Parallelisms) == 0 {
		c.Parallelisms = []int{1, 2, 4, 8}
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	return c
}

// execDiff is one differential run: the MVCC-backed state database under
// test and the plain-map reference it must track.
type execDiff struct {
	cfg ExecDiffConfig
	db  *statedb.StateDB
	ref map[types.Key][]byte
	// afterCommit, when set, runs between the MVCC commit and the state
	// comparison; the meta-tests plant a wrong committed write through it.
	afterCommit func(db *statedb.StateDB) error
}

// newExecDiff seeds the MVCC database and the reference map with the same
// genesis state. cfg must already carry its defaults.
func newExecDiff(cfg ExecDiffConfig) (*execDiff, error) {
	genesis, _ := Generate(cfg.Gen)
	keys := make([]types.Key, 0, len(genesis))
	for k := range genesis { //nezha:nondeterminism-ok keys are sorted immediately below
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	seed := make([]types.WriteEntry, len(keys))
	for i, k := range keys {
		seed[i] = types.WriteEntry{Key: k, Value: genesis[k]}
	}
	db := statedb.Open(kvstore.NewMemory(), mpt.EmptyRoot)
	if _, err := db.Commit(seed); err != nil {
		return nil, err
	}
	return &execDiff{cfg: cfg, db: db, ref: genesis}, nil
}

// execEpoch re-executes the epoch's generated footprints against a state
// reader: reads observe the current state, and every write value is
// derived from the transaction's read values, so a wrong read propagates
// into wrong state instead of cancelling out.
func execEpoch(r statedb.Reader, templates []*types.SimResult, epoch int) ([]*types.SimResult, error) {
	sims := make([]*types.SimResult, len(templates))
	for i, tpl := range templates {
		sim := &types.SimResult{Tx: tpl.Tx}
		var readBuf []byte
		for _, re := range tpl.Reads {
			v, err := r.Get(re.Key)
			if err != nil {
				return nil, fmt.Errorf("epoch %d tx %d read: %w", epoch, tpl.Tx.ID, err)
			}
			sim.Reads = append(sim.Reads, types.ReadEntry{Key: re.Key, Value: v})
			readBuf = append(readBuf, v...)
		}
		for _, we := range tpl.Writes {
			h := types.HashBytes(append(append(append([]byte{byte(epoch)}, we.Key[:]...), we.Value...), readBuf...))
			sim.Writes = append(sim.Writes, types.WriteEntry{Key: we.Key, Value: h[:8]})
		}
		sims[i] = sim
	}
	return sims, nil
}

// scheduleEpoch schedules one executed epoch at every parallelism level,
// requiring identical output, and verifies it against the serial-replay
// oracle.
func scheduleEpoch(cfg ExecDiffConfig, sims []*types.SimResult, epoch int) (*types.Schedule, *Failure) {
	var ref *types.Schedule
	for _, par := range cfg.Parallelisms {
		cc := core.DefaultConfig()
		cc.Parallelism = par
		sch, err := core.NewScheduler(cc)
		if err != nil {
			return nil, &Failure{Kind: FailSchedulerError, Detail: fmt.Sprintf("epoch %d (par=%d): %v", epoch, par, err)}
		}
		out, _, err := sch.Schedule(sims)
		if err != nil {
			return nil, &Failure{Kind: FailSchedulerError, Detail: fmt.Sprintf("epoch %d (par=%d): %v", epoch, par, err)}
		}
		if ref == nil {
			ref = out
		} else if !ref.Equal(out) {
			return nil, &Failure{Kind: FailParallelism,
				Detail: fmt.Sprintf("epoch %d parallelism %d vs %d: %s", epoch, cfg.Parallelisms[0], par, diffSchedules(ref, out))}
		}
	}
	// The epoch's pre-state, reconstructed from the recorded reads, is
	// exactly what serial replay must reproduce.
	pre := make(map[types.Key][]byte)
	for _, sim := range sims {
		for _, re := range sim.Reads {
			pre[re.Key] = re.Value
		}
	}
	if err := core.VerifySchedule(pre, sims, ref); err != nil {
		return nil, &Failure{Kind: FailOracle, Detail: fmt.Sprintf("epoch %d: %v", epoch, err)}
	}
	return ref, nil
}

// RunExecDiff drives the MVCC executor and the plain-map reference through
// cfg.Epochs generations of one workload shape and reports the first
// divergence (nil when clean).
func RunExecDiff(cfg ExecDiffConfig) *Failure {
	cfg = cfg.withDefaults()
	d, err := newExecDiff(cfg)
	if err != nil {
		return &Failure{Kind: FailExecDiff, Gen: cfg.Gen, Detail: fmt.Sprintf("genesis: %v", err)}
	}
	return d.run()
}

// run executes every configured epoch, stopping at the first divergence.
func (d *execDiff) run() *Failure {
	for e := 0; e < d.cfg.Epochs; e++ {
		if f := d.epoch(e); f != nil {
			f.Gen = d.cfg.Gen
			return f
		}
	}
	return nil
}

// epoch executes, schedules and commits generation e on both sides.
func (d *execDiff) epoch(e int) *Failure {
	gen := d.cfg.Gen
	gen.Seed += int64(e)
	_, templates := Generate(gen)

	sims, err := execEpoch(d.db.View(), templates, e)
	if err != nil {
		return &Failure{Kind: FailExecDiff, Detail: "mvcc: " + err.Error()}
	}
	refSims, err := execEpoch(vm.MapReader(d.ref), templates, e)
	if err != nil {
		return &Failure{Kind: FailExecDiff, Detail: "reference: " + err.Error()}
	}
	if f := diffSims(sims, refSims, e); f != nil {
		return f
	}

	sched, f := scheduleEpoch(d.cfg, sims, e)
	if f != nil {
		return f
	}
	if _, err := node.CommitSchedule(d.db, sims, sched, d.cfg.Workers); err != nil {
		return &Failure{Kind: FailExecDiff, Detail: fmt.Sprintf("epoch %d mvcc commit: %v", e, err)}
	}
	for k, v := range core.CommitState(refSims, sched) { //nezha:nondeterminism-ok map-to-map copy; order cannot change the result
		d.ref[k] = v
	}
	if d.afterCommit != nil {
		if err := d.afterCommit(d.db); err != nil {
			return &Failure{Kind: FailExecDiff, Detail: fmt.Sprintf("epoch %d after commit: %v", e, err)}
		}
	}
	if f := diffState(d.db, d.ref, e); f != nil {
		return f
	}
	// Fold old generations away mid-run so the sweep also exercises the
	// GC path (a fold that corrupts a base surfaces next epoch).
	d.db.AdvanceWatermark()
	return nil
}

// diffSims compares the MVCC executor's read observations with the
// reference's, entry for entry.
func diffSims(a, b []*types.SimResult, epoch int) *Failure {
	for i := range a {
		if len(a[i].Reads) != len(b[i].Reads) {
			return &Failure{Kind: FailExecDiff,
				Detail: fmt.Sprintf("epoch %d tx %d: %d vs %d reads", epoch, a[i].Tx.ID, len(a[i].Reads), len(b[i].Reads))}
		}
		for j := range a[i].Reads {
			if a[i].Reads[j].Key != b[i].Reads[j].Key || !bytes.Equal(a[i].Reads[j].Value, b[i].Reads[j].Value) {
				return &Failure{Kind: FailExecDiff,
					Detail: fmt.Sprintf("epoch %d tx %d key %x: mvcc read %x, reference read %x",
						epoch, a[i].Tx.ID, a[i].Reads[j].Key[:8], a[i].Reads[j].Value, b[i].Reads[j].Value)}
			}
		}
	}
	return nil
}

// diffState compares the database's committed contents with the reference
// map: every key the trie holds must carry the reference value, and the
// trie must hold every reference key.
func diffState(db *statedb.StateDB, ref map[types.Key][]byte, epoch int) *Failure {
	var f *Failure
	held := 0
	err := db.Iterate(func(k types.Key, v []byte) bool {
		if want, ok := ref[k]; !ok || !bytes.Equal(v, want) {
			f = &Failure{Kind: FailExecDiff,
				Detail: fmt.Sprintf("epoch %d state key %x: mvcc %x, reference %x", epoch, k[:8], v, want)}
			return false
		}
		held++
		return true
	})
	if err != nil {
		return &Failure{Kind: FailExecDiff, Detail: fmt.Sprintf("epoch %d state iterate: %v", epoch, err)}
	}
	if f == nil && held != len(ref) {
		f = &Failure{Kind: FailExecDiff,
			Detail: fmt.Sprintf("epoch %d state: mvcc holds %d keys, reference %d", epoch, held, len(ref))}
	}
	return f
}

// ExecDiffRunConfig configures an executor-differential sweep across the
// standard profiles.
type ExecDiffRunConfig struct {
	// StartSeed is the first seed; trial i uses StartSeed+i per profile.
	StartSeed int64
	// Seeds is the number of seeds per profile. Defaults to 5.
	Seeds int
	// Epochs per trial. Defaults to 4.
	Epochs int
	// Txs and Keys override the per-trial epoch dimensions.
	Txs, Keys int
	// Parallelisms defaults to 1, 2, 4, 8.
	Parallelisms []int
	// MaxFailures stops the sweep early; 0 means 5.
	MaxFailures int
	// Verbose, when non-nil, receives one progress line per trial.
	Verbose io.Writer
}

// ExecDiffReport is the outcome of an executor-differential sweep.
type ExecDiffReport struct {
	Trials   int
	Failures []*Failure
}

// Failed reports whether any trial diverged.
func (r *ExecDiffReport) Failed() bool { return len(r.Failures) > 0 }

// Summary renders the sweep outcome, stable across runs.
func (r *ExecDiffReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "execdiff trials: %d, failures: %d\n", r.Trials, len(r.Failures))
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "FAIL: %s\n", f.Error())
	}
	return b.String()
}

// RunExecDiffSweep runs the executor differential over every standard
// profile at every seed.
func RunExecDiffSweep(cfg ExecDiffRunConfig) *ExecDiffReport {
	if cfg.Seeds == 0 {
		cfg.Seeds = 5
	}
	if cfg.MaxFailures == 0 {
		cfg.MaxFailures = 5
	}
	rep := &ExecDiffReport{}
	for _, p := range Profiles() {
		for i := 0; i < cfg.Seeds; i++ {
			gen := p.Gen
			gen.Seed = cfg.StartSeed + int64(i)
			if cfg.Txs != 0 {
				gen.Txs = cfg.Txs
			}
			if cfg.Keys != 0 {
				gen.Keys = cfg.Keys
			}
			fail := RunExecDiff(ExecDiffConfig{Gen: gen, Epochs: cfg.Epochs, Parallelisms: cfg.Parallelisms})
			rep.Trials++
			if cfg.Verbose != nil {
				status := "ok"
				if fail != nil {
					status = "FAIL " + string(fail.Kind)
				}
				fmt.Fprintf(cfg.Verbose, "%-20s seed=%-4d epochs=%-2d %s\n", p.Name, gen.Seed, cfg.Epochs, status)
			}
			if fail != nil {
				fail.Profile = p.Name
				rep.Failures = append(rep.Failures, fail)
				if len(rep.Failures) >= cfg.MaxFailures {
					return rep
				}
			}
		}
	}
	return rep
}

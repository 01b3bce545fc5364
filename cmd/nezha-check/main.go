// Command nezha-check runs the differential correctness harness
// (internal/check) from the command line — the same battery CI runs on
// every push, in a form that reproduces a CI failure locally in one
// command.
//
//	nezha-check run     -seeds 10 -txs 256 -keys 64        # full sweep
//	nezha-check replay  -seed 7 -profile multi-write-rescue # one failing trial, verbose
//	nezha-check corpus  -dir .                              # regenerate fuzz seed corpora
//
// run exits nonzero on any divergence and prints the exact replay command
// for each failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/nezha-dag/nezha/internal/cg"
	"github.com/nezha-dag/nezha/internal/check"
	"github.com/nezha-dag/nezha/internal/rlp"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "execdiff":
		err = cmdExecDiff(os.Args[2:])
	case "corpus":
		err = cmdCorpus(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: nezha-check <command> [flags]

commands:
  run       sweep seeds through every adversarial profile and diff-check them
  replay    re-run one (profile, seed) trial verbosely, minimizing any failure
  execdiff  diff the MVCC executor against a plain-map reference over evolving epochs
  corpus    write the fuzz seed corpora under testdata/fuzz/ (run from repo root)`)
}

// parseParallelisms turns "1,2,4,8" into a slice.
func parseParallelisms(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || p < 1 {
			return nil, fmt.Errorf("bad parallelism list %q", s)
		}
		out = append(out, p)
	}
	return out, nil
}

// cgBudget returns the CLI's baseline budget: tight enough that trials
// whose cycle enumeration explodes (the paper's documented CG failure mode)
// surface quickly as cg-skipped rather than stalling the sweep.
func cgBudget(seconds int) *cg.Config {
	return &cg.Config{MaxCycles: 100_000, SampleCycles: 50_000, TimeBudget: time.Duration(seconds) * time.Second}
}

// runVet shells out to the nezha-vet analyzer suite (tier 0 of the test
// pyramid, see TESTING.md): static invariants first, then the dynamic
// sweep — a registry or determinism violation fails fast without burning
// minutes of differential trials. Module-path patterns keep it working
// from any directory inside the module.
func runVet() error {
	cmd := exec.Command("go", "run",
		"github.com/nezha-dag/nezha/cmd/nezha-vet", "github.com/nezha-dag/nezha/...")
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("nezha-vet failed: %w", err)
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	seeds := fs.Int("seeds", 10, "seeds per profile")
	startSeed := fs.Int64("start-seed", 1, "first seed")
	txs := fs.Int("txs", 256, "transactions per epoch")
	keys := fs.Int("keys", 64, "address-space size")
	profiles := fs.String("profiles", "all", "comma-separated profile names, or 'all'")
	par := fs.String("par", "1,2,4,8", "parallelism levels to diff")
	cgSecs := fs.Int("cg-budget", 5, "CG baseline time budget per trial, seconds (0 skips CG)")
	vet := fs.Bool("vet", false, "run the nezha-vet analyzers over the tree first (tier 0)")
	verbose := fs.Bool("v", false, "one line per trial")
	fs.Parse(args)

	if *vet {
		if err := runVet(); err != nil {
			return err
		}
	}
	pars, err := parseParallelisms(*par)
	if err != nil {
		return err
	}
	var profs []check.Profile
	if *profiles == "all" {
		profs = check.Profiles()
	} else {
		for _, name := range strings.Split(*profiles, ",") {
			p, err := check.ProfileByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			profs = append(profs, p)
		}
	}
	cfg := check.RunConfig{
		StartSeed:    *startSeed,
		Seeds:        *seeds,
		Txs:          *txs,
		Keys:         *keys,
		Profiles:     profs,
		Parallelisms: pars,
		CG:           cgBudget(*cgSecs),
		SkipCG:       *cgSecs == 0,
	}
	if *verbose {
		cfg.Verbose = os.Stdout
	}
	rep := check.Run(cfg)
	fmt.Print(rep.Summary())
	if rep.Failed() {
		for _, f := range rep.Failures {
			fmt.Printf("reproduce: nezha-check replay -seed %d -profile %s -txs %d -keys %d\n",
				f.Gen.Seed, f.Profile, f.Gen.Txs, f.Gen.Keys)
		}
		return fmt.Errorf("nezha-check: %d of %d trials diverged", len(rep.Failures), rep.Trials)
	}
	return nil
}

// cmdExecDiff sweeps the executor differential: the same workload run
// through the MVCC version-cache read path and against a plain-map
// reference must read identical values and hold identical state epoch
// after epoch (see internal/check/execdiff.go).
func cmdExecDiff(args []string) error {
	fs := flag.NewFlagSet("execdiff", flag.ExitOnError)
	seeds := fs.Int("seeds", 5, "seeds per profile")
	startSeed := fs.Int64("start-seed", 1, "first seed")
	epochs := fs.Int("epochs", 4, "committed generations per trial")
	txs := fs.Int("txs", 256, "transactions per epoch")
	keys := fs.Int("keys", 64, "address-space size")
	par := fs.String("par", "1,2,4,8", "parallelism levels to diff")
	verbose := fs.Bool("v", false, "one line per trial")
	fs.Parse(args)

	pars, err := parseParallelisms(*par)
	if err != nil {
		return err
	}
	cfg := check.ExecDiffRunConfig{
		StartSeed:    *startSeed,
		Seeds:        *seeds,
		Epochs:       *epochs,
		Txs:          *txs,
		Keys:         *keys,
		Parallelisms: pars,
	}
	if *verbose {
		cfg.Verbose = os.Stdout
	}
	rep := check.RunExecDiffSweep(cfg)
	fmt.Print(rep.Summary())
	if rep.Failed() {
		for _, f := range rep.Failures {
			fmt.Printf("reproduce: nezha-check execdiff -start-seed %d -seeds 1 -epochs %d -txs %d -keys %d\n",
				f.Gen.Seed, *epochs, f.Gen.Txs, f.Gen.Keys)
		}
		return fmt.Errorf("nezha-check: %d of %d execdiff trials diverged", len(rep.Failures), rep.Trials)
	}
	return nil
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	seed := fs.Int64("seed", -1, "seed to replay (required)")
	profile := fs.String("profile", "mixed", "profile name")
	txs := fs.Int("txs", 256, "transactions per epoch")
	keys := fs.Int("keys", 64, "address-space size")
	par := fs.String("par", "1,2,4,8", "parallelism levels to diff")
	cgSecs := fs.Int("cg-budget", 5, "CG baseline time budget, seconds (0 skips CG)")
	fs.Parse(args)

	if *seed < 0 {
		return fmt.Errorf("replay: -seed is required")
	}
	pars, err := parseParallelisms(*par)
	if err != nil {
		return err
	}
	p, err := check.ProfileByName(*profile)
	if err != nil {
		return err
	}
	gen := p.Gen
	gen.Seed = *seed
	gen.Txs = *txs
	gen.Keys = *keys

	res := check.RunTrial(check.TrialConfig{
		Gen:          gen,
		Parallelisms: pars,
		CG:           cgBudget(*cgSecs),
		SkipCG:       *cgSecs == 0,
	})
	fmt.Printf("profile=%s seed=%d txs=%d keys=%d\n", p.Name, gen.Seed, res.Txs, gen.Keys)
	fmt.Printf("nezha: committed=%d aborted=%d rescued=%d\n", res.Committed, res.Aborted, res.Rescued)
	if res.CGSkipped {
		fmt.Println("cg: skipped (cycle-explosion budget)")
	} else {
		fmt.Printf("cg: committed=%d\n", res.CGCommitted)
	}
	if res.Failure == nil {
		fmt.Println("result: ok")
		return nil
	}
	fmt.Printf("result: FAIL\n%s\n", res.Failure.Error())
	if len(res.Failure.Minimized) > 0 {
		fmt.Println("minimized failing transactions:")
		_, sims := check.Generate(gen)
		for _, id := range res.Failure.Minimized {
			sim := sims[id]
			fmt.Printf("  tx %-4d reads=%d writes=%d", id, len(sim.Reads), len(sim.Writes))
			for _, r := range sim.Reads {
				fmt.Printf(" R:%s", r.Key.Hex()[:8])
			}
			for _, w := range sim.Writes {
				fmt.Printf(" W:%s", w.Key.Hex()[:8])
			}
			fmt.Println()
		}
	}
	return fmt.Errorf("replay: trial diverged")
}

// cmdCorpus regenerates the checked-in fuzz seed corpora. Entries are built
// with the same codec the fuzz targets decode (check.EpochFromBytes /
// check.AppendTx), so every seed is a meaningful epoch, not noise.
func cmdCorpus(args []string) error {
	fs := flag.NewFlagSet("corpus", flag.ExitOnError)
	dir := fs.String("dir", ".", "repository root")
	fs.Parse(args)

	write := func(pkg, target, name string, inputs ...any) error {
		path := filepath.Join(*dir, "internal", pkg, "testdata", "fuzz", target, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		var b strings.Builder
		b.WriteString("go test fuzz v1\n")
		for _, in := range inputs {
			switch v := in.(type) {
			case []byte:
				fmt.Fprintf(&b, "[]byte(%q)\n", v)
			case uint16:
				fmt.Fprintf(&b, "uint16(%d)\n", v)
			default:
				return fmt.Errorf("corpus: unsupported input type %T", in)
			}
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
		return nil
	}

	// Epoch-shaped seeds for FuzzSchedule and FuzzRankDivision.
	epochs := map[string][]byte{
		"uniform":    epochUniform(),
		"hot-key":    epochHotKey(),
		"cycle-ring": epochCycleRing(),
		"multiwrite": epochMultiWrite(),
		"stateless":  epochStateless(),
		"parallel":   epochParallel(),
	}
	for name, data := range epochs {
		for _, target := range []string{"FuzzSchedule", "FuzzRankDivision"} {
			if err := write("core", target, name, data); err != nil {
				return err
			}
		}
	}

	// Valid RLP encodings seed the decoder deeper than random bytes.
	rlpSeeds := map[string][]byte{
		"empty-string": rlp.Encode(rlp.String(nil)),
		"uint":         rlp.Encode(rlp.Uint(0xDEADBEEF)),
		"nested":       rlp.Encode(rlp.List(rlp.Uint(7), rlp.List(rlp.String([]byte("nezha"))), rlp.String(nil))),
		"long-string":  rlp.Encode(rlp.String(make([]byte, 64))),
		"deep-list":    rlp.Encode(rlp.List(rlp.List(rlp.List(rlp.List(rlp.Uint(1)))))),
	}
	for name, data := range rlpSeeds {
		if err := write("rlp", "FuzzRLP", name, data); err != nil {
			return err
		}
	}

	// Trie programs: overwrites, deletes, and prefix-sharing keys.
	mptSeeds := map[string][]byte{
		"puts":           {0x01, 0, 1, 0x01, 1, 2, 0x01, 2, 3, 0x01, 3, 4},
		"overwrite":      {0x01, 5, 1, 0x01, 5, 2, 0x01, 5, 3},
		"delete-restore": {0x01, 7, 1, 0x81, 7, 0, 0x01, 7, 2, 0x81, 7, 0},
		"dense":          denseTrieProgram(),
	}
	for name, data := range mptSeeds {
		if err := write("mpt", "FuzzProof", name, data); err != nil {
			return err
		}
	}

	// WAL programs plus a truncation offset.
	walSeeds := map[string][]any{
		"puts":      {[]byte{1, 8, 16, 1, 4, 8, 1, 2, 4}, uint16(0)},
		"mixed-ops": {[]byte{1, 3, 2, 2, 1, 0, 1, 8, 16, 2, 0, 0}, uint16(11)},
		"torn-mid":  {[]byte{1, 8, 16, 1, 8, 16, 1, 8, 16}, uint16(40)},
	}
	for name, inputs := range walSeeds {
		if err := write("kvstore", "FuzzWAL", name, inputs...); err != nil {
			return err
		}
	}
	return nil
}

// The epoch builders below speak check.AppendTx's dialect: byte 0 is the
// key-space size selector, then one AppendTx per transaction.

func epochUniform() []byte {
	out := []byte{15} // 16 keys
	for i := 0; i < 24; i++ {
		out = check.AppendTx(out, []byte{byte(i % 16)}, []byte{byte((i + 5) % 16)})
	}
	return out
}

func epochHotKey() []byte {
	out := []byte{7}
	for i := 0; i < 24; i++ {
		if i%2 == 0 {
			out = check.AppendTx(out, []byte{0}, []byte{0})
		} else {
			out = check.AppendTx(out, nil, []byte{0, byte(i % 8)})
		}
	}
	return out
}

func epochCycleRing() []byte {
	out := []byte{11} // 12 keys, rings of 4
	for i := 0; i < 24; i++ {
		r := byte((i % 4) + (i/4)*4%12)
		w := byte(((i+1)%4 + (i/4)*4) % 12)
		out = check.AppendTx(out, []byte{r % 12}, []byte{w})
	}
	return out
}

func epochMultiWrite() []byte {
	out := []byte{7}
	for i := 0; i < 20; i++ {
		out = check.AppendTx(out, nil, []byte{byte(i % 8), byte((i + 3) % 8)})
	}
	// A few readers make the multi-writers' rescue path reachable.
	for i := 0; i < 6; i++ {
		out = check.AppendTx(out, []byte{byte(i % 8)}, nil)
	}
	return out
}

func epochStateless() []byte {
	out := []byte{3}
	for i := 0; i < 10; i++ {
		out = check.AppendTx(out, nil, nil) // stateless
		out = check.AppendTx(out, []byte{byte(i % 4)}, []byte{byte((i + 1) % 4)})
	}
	return out
}

// epochParallel crosses the scheduler's 128-tx sequential-fallback
// threshold so fuzzing actually reaches the sharded builder and the
// cluster-parallel sorter.
func epochParallel() []byte {
	out := []byte{15}
	for i := 0; i < 160; i++ {
		out = check.AppendTx(out, []byte{byte(i % 16)}, []byte{byte((i * 7) % 16)})
	}
	return out
}

func denseTrieProgram() []byte {
	var out []byte
	for i := 0; i < 24; i++ {
		out = append(out, 0x01, byte(i), byte(i*3))
	}
	for i := 0; i < 24; i += 2 {
		out = append(out, 0x81, byte(i), 0)
	}
	return out
}

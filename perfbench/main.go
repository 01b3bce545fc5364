// Command perfbench is the repository benchmark. It drives the node only
// through its public functions, on one of the workloads in workload.go,
// and prints every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1) by name, with unit and sample count, then one JSON line:
//
//	bash perfbench/run.sh --workload epoch-contended --seed 1 --seconds 20 --trace 0
//
// A run repeats rounds of fixed work on fresh nodes, as many as last about
// --seconds on an idle 2-vCPU machine (see RoundSeconds). Round r's inputs
// come from the seed and r alone and are generated (and signed) before the
// round's timing starts, so round r of two runs with the same seed must
// print the same state root, epoch count and abort count. The output
// checks exit non-zero on failure: per-epoch accounting, replica
// agreement, no tx settled twice, and a replay of the first round's
// opening epochs through a node that verifies every schedule against
// serial execution. End-to-end metrics come from untraced runs. A traced
// run measures once untraced, for the tracing overhead, then again with
// the scheduler and store wrapped and every driver call timed; its spans
// are written under the build directory when the run ends.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload name")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 20, "seconds to measure")
		trace    = flag.Int("trace", 0, "1 for the traced run reporting per-layer metrics")
		buildDir = flag.String("build-dir", ".bench_build", "directory for LSM stores and trace files")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *buildDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// roundSeed derives round r's input seed: rounds of one run draw distinct
// inputs, so a run averages over as many independent input sets as it has
// rounds, while round r of any run with the same seed replays the same one.
func roundSeed(seed int64, r int) int64 { return seed*1_000_003 + int64(r) }

// measureRun runs the given number of rounds. Each round's inputs
// are generated, and signed, before the round starts; generation is
// neither timed nor part of set-up. The first round of an epoch workload
// is replayed through the schedule-verifying oracle.
func measureRun(w WorkloadConfig, seed int64, rounds int, buildDir string, tr *tracer) (*acc, error) {
	a := &acc{rejectedBy: map[string]int{}}
	for r := 0; r < rounds; r++ {
		rs := roundSeed(seed, r)
		if w.Kind == ingest {
			in, err := buildIngestInputs(w, rs)
			if err != nil {
				return nil, fmt.Errorf("generate inputs: %w", err)
			}
			if err := ingestRound(w, in, r, a, tr); err != nil {
				return nil, err
			}
			continue
		}
		in, err := buildEpochInputs(w, rs)
		if err != nil {
			return nil, fmt.Errorf("generate inputs: %w", err)
		}
		roots, err := epochRound(w, in, buildDir, r, a, tr)
		if err != nil {
			return nil, err
		}
		if r == 0 && tr == nil {
			if err := replayCheck(w, in, roots); err != nil {
				return nil, fmt.Errorf("replay check: %w", err)
			}
		}
	}
	return a, nil
}

func run(name string, seed int64, seconds int, traced bool, buildDir string) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	fmt.Println(fingerprint(w, seed, traced))
	rounds := int(math.Ceil(float64(seconds) / w.RoundSeconds))
	a, err := measureRun(w, seed, rounds, buildDir, nil)
	if err != nil {
		return err
	}
	if w.Kind == epochReplay {
		fmt.Printf("check: round 0's opening %d epochs replayed with schedule verification: identical roots\n", w.ReplayEpochs)
	}
	fmt.Print("check: per-epoch accounting closed")
	if w.Kind == ingest {
		fmt.Print("; replicas agreed on every epoch root; no tx settled twice")
	}
	fmt.Println()
	for reason, n := range a.rejectedBy {
		fmt.Printf("rejected: %d by %q\n", n, reason)
	}
	for r, s := range a.rounds {
		fmt.Printf("round %d: root=%s epochs=%d committed=%d aborted=%d exec_failed=%d rejected=%d lost=%d setup_s=%.3f timed_s=%.3f steal=%.1f%%\n",
			r, s.Root.String(), s.Epochs, s.Committed, s.Aborted, s.ExecFailed, s.Rejected, s.Lost, a.setup[r], a.roundTimed[r].Seconds(), 100*a.roundSteal[r])
	}

	var ms []metric
	res := a
	if traced {
		tr := newTracer()
		ta, err := measureRun(w, seed, rounds, buildDir, tr)
		if err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
		for r := range ta.rounds {
			if ta.rounds[r] != a.rounds[r] {
				return fmt.Errorf("traced round %d did different work: %+v vs %+v", r, ta.rounds[r], a.rounds[r])
			}
		}
		tr.resolve()
		path := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", w.Name, seed))
		if err := tr.write(path); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), path)
		ms = layerMetrics(w, ta, tr, a)
		res = ta
	} else {
		ms = endToEnd(a)
	}
	fmt.Printf("%-28s %14s  %-11s %s\n", "metric", "value", "unit", "samples")
	for _, m := range ms {
		fmt.Printf("%-28s %14.4f  %-11s %d\n", m.name, m.value, m.unit, m.samples)
	}
	t := res.totals()
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{true, t.Offered, t.Rejected + t.Lost, map[string]map[string]any{}}
	for _, m := range ms {
		out.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd computes the user-visible metrics of an untraced run: each is
// taken per round and the median over rounds reported.
func endToEnd(a *acc) []metric {
	t := a.totals()
	return []metric{
		{"setup_s", median(a.setup), "s", len(a.setup)},
		{"commit_tps", a.commitTPS(), "tx/s", t.Committed},
		{"epoch_ms_p50", a.epochMS.quantile(0.5), "ms", a.epochMS.count()},
		{"epoch_ms_p95", a.epochMS.quantile(0.95), "ms", a.epochMS.count()},
		{"confirm_ms_p50", a.confirmMS.quantile(0.5), "ms", a.confirmMS.count()},
		{"confirm_ms_p99", a.confirmMS.quantile(0.99), "ms", a.confirmMS.count()},
		{"failed_share", float64(t.Offered-t.Committed) / float64(t.Offered), "ratio", t.Offered},
		{"heap_peak_mb", float64(a.heapPeak) / (1 << 20), "MB", t.Epochs},
	}
}

// fingerprint records the machine and run.
func fingerprint(w WorkloadConfig, seed int64, traced bool) string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("machine: nproc=%d gomaxprocs=%d cpu=%q go=%s seed=%d workload=%s traced=%t",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu, runtime.Version(), seed, w.Name, traced)
}

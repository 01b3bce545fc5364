package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// short shrinks a workload to a quick single round of the same shape.
func short(w WorkloadConfig) WorkloadConfig {
	w.Epochs = min(w.Epochs, 6)
	w.ReplayEpochs = min(w.ReplayEpochs, 3)
	w.Offered = min(w.Offered, 2_000)
	return w
}

// TestDeterminism runs every workload twice with one seed and once with
// another: the same seed must give identical final roots, epoch counts and
// abort counts, and a different seed a different root.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		w := short(w)
		t.Run(w.Name, func(t *testing.T) {
			run := func(seed int64) roundSummary {
				a, err := measureRun(w, seed, 1, t.TempDir(), nil)
				if err != nil {
					t.Fatal(err)
				}
				return a.rounds[0]
			}
			first, second, other := run(7), run(7), run(8)
			if first != second {
				t.Fatalf("same seed, different work:\n%+v\n%+v", first, second)
			}
			if first.Epochs == 0 || first.Committed == 0 {
				t.Fatalf("round did no work: %+v", first)
			}
			if other.Root == first.Root {
				t.Fatalf("seeds 7 and 8 reached the same root %s", first.Root)
			}
		})
	}
}

// TestTracedRunMatches checks that wrapping the scheduler and store changes
// no result, and that layer self times plus the residual add up to the
// traced wall time.
func TestTracedRunMatches(t *testing.T) {
	for _, w := range workloads {
		w := short(w)
		t.Run(w.Name, func(t *testing.T) {
			plain, err := measureRun(w, 3, 1, t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, err := measureRun(w, 3, 1, t.TempDir(), tr)
			if err != nil {
				t.Fatal(err)
			}
			if plain.rounds[0] != traced.rounds[0] {
				t.Fatalf("tracing changed the work:\n%+v\n%+v", plain.rounds[0], traced.rounds[0])
			}
			tr.resolve()
			self, wall := tr.selfTimes()
			var sum int64
			for _, v := range self[:lWait] {
				sum += v
			}
			// Spans of different layers overlap only where a background
			// goroutine of the node outlives the stage that started it.
			if diff := float64(wall - sum); wall <= 0 || diff > 0.01*float64(wall) || -diff > 0.01*float64(wall) {
				t.Fatalf("self times sum to %d ns, wall %d ns", sum, wall)
			}
		})
	}
}

// TestBenchmarkJSON checks BENCHMARK.json lists exactly the workloads and
// metrics the program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, registry %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q, registry %q", i, w.Name, workloads[i].Name)
		}
	}
	a := &acc{rejectedBy: map[string]int{}}
	a.rounds = []roundSummary{{Offered: 1, Committed: 1, Epochs: 1}}
	a.roundTimed = []time.Duration{time.Second}
	same := func(kind string, spec []struct{ Name, Unit string }, got []metric) {
		if len(spec) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(spec), len(got))
			return
		}
		for i, m := range got {
			if spec[i].Name != m.name || spec[i].Unit != m.unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, spec[i].Name, spec[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd(a))
	same("per_layer", spec.PerLayer, layerMetrics(workloads[0], a, newTracer(), a))
}

// Package metrics collects the measurements the paper's evaluation reports:
// per-phase latencies of the transaction-processing workflow (validation,
// concurrent execution, concurrency control, commitment — Fig. 2(b)), the
// concurrency-control sub-phase breakdown (Fig. 10), abort counts
// (Fig. 11), and effective throughput (Fig. 12).
package metrics

import (
	"sync"
	"time"

	"github.com/nezha-dag/nezha/internal/types"
)

// StageStat records one named pipeline stage of one epoch: its wall-clock
// span, how many work items it fanned out, the goroutines serving it, the
// summed per-worker busy span, and how much of its cost ran hidden under
// the previous epoch's commit (the cross-epoch overlap).
type StageStat struct {
	Name     string
	Duration time.Duration
	// Tasks is the number of work items the stage processed (blocks for
	// validation, transactions for execution/scheduling, committed
	// transactions for commitment).
	Tasks int
	// Workers is the goroutine count that served the stage (1 = inline).
	Workers int
	// Busy is the summed wall-clock span of the stage's workers; with
	// Duration and Workers it yields the pool occupancy.
	Busy time.Duration
	// Overlap is work this stage would have done that already ran in the
	// background, overlapped with the previous epoch's commit.
	Overlap time.Duration
	// Capacity is the summed Duration×Workers over the samples this stat
	// aggregates. Zero on a single-epoch sample (where Duration×Workers
	// is the capacity); Summarize fills it so occupancy stays duration-
	// weighted across epochs whose worker counts differ.
	Capacity time.Duration
}

// capacitySpan returns the worker-capacity wall-clock this sample covers.
func (s StageStat) capacitySpan() time.Duration {
	if s.Capacity > 0 {
		return s.Capacity
	}
	return s.Duration * time.Duration(s.Workers)
}

// Occupancy returns the fraction of the stage's worker capacity that was
// busy: Busy / (Duration × Workers) for a single-epoch sample, and
// Busy / ΣᵢDurationᵢ×Workersᵢ for an aggregated one — each epoch's
// occupancy weighted by its capacity, so epochs that ran longer or wider
// count proportionally more (keeping max Workers across epochs, as
// aggregation once did, overstated the denominator of narrow epochs and
// understated busy pools). 0 when the stage kept no busy span (inline
// stages); values near 1 mean a balanced, saturated pool.
func (s StageStat) Occupancy() float64 {
	span := s.capacitySpan()
	if span <= 0 || s.Busy <= 0 {
		return 0
	}
	return float64(s.Busy) / float64(span)
}

// add accumulates another sample of the same stage.
func (s *StageStat) add(o StageStat) {
	s.Duration += o.Duration
	s.Tasks += o.Tasks
	if o.Workers > s.Workers {
		s.Workers = o.Workers
	}
	s.Busy += o.Busy
	s.Overlap += o.Overlap
	s.Capacity += o.capacitySpan()
}

// EpochStats records one processed epoch.
type EpochStats struct {
	Epoch            uint64
	BlockConcurrency int
	Txs              int
	Committed        int
	Aborted          int
	ExecutionFailed  int

	// ControlBreakdown splits the schedule stage into the Fig. 10
	// sub-phases.
	ControlBreakdown types.PhaseBreakdown
	// Stages lists the pipeline stages in execution order with their
	// durations and queue/occupancy counters — the one record every
	// phase total is read from.
	Stages []StageStat
}

// Total returns the end-to-end processing latency of the epoch: the sum
// of its stage durations.
func (e EpochStats) Total() time.Duration { return stagesTotal(e.Stages) }

// Stage returns the named stage's record; the zero StageStat when the
// epoch ran no such stage.
func (e EpochStats) Stage(name string) StageStat { return stageNamed(e.Stages, name) }

func stagesTotal(stages []StageStat) time.Duration {
	var d time.Duration
	for _, s := range stages {
		d += s.Duration
	}
	return d
}

func stageNamed(stages []StageStat, name string) StageStat {
	for _, s := range stages {
		if s.Name == name {
			return s
		}
	}
	return StageStat{}
}

// AbortRate returns aborted/(committed+aborted), counting scheduler aborts
// only (execution failures are a different phenomenon).
func (e EpochStats) AbortRate() float64 {
	total := e.Committed + e.Aborted
	if total == 0 {
		return 0
	}
	return float64(e.Aborted) / float64(total)
}

// Collector accumulates epoch statistics; safe for concurrent use. By
// default it retains every recorded epoch; long-running nodes should set
// a cap (SetCap) so retention is a ring buffer instead of an unbounded
// append.
type Collector struct {
	mu     sync.Mutex
	epochs []EpochStats
	// cap > 0 bounds len(epochs); epochs is then a ring with start
	// marking the oldest entry.
	cap     int
	start   int
	dropped uint64
}

// NewCollector returns an empty, unbounded collector.
func NewCollector() *Collector { return &Collector{} }

// SetCap bounds retention to the most recent n epochs (0 restores
// unbounded retention). Epochs(), Summarize(), and the derived summary
// metrics then cover only the retained window; Dropped() counts what has
// been evicted. Shrinking the cap below the current count evicts the
// oldest entries immediately.
func (c *Collector) SetCap(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 0 {
		n = 0
	}
	if n > 0 && len(c.epochs) > n {
		ordered := c.orderedLocked()
		c.epochs = ordered[len(ordered)-n:]
		c.dropped += uint64(len(ordered) - n)
	} else if c.start > 0 {
		c.epochs = c.orderedLocked()
	}
	c.start = 0
	c.cap = n
}

// Record appends one epoch's stats, evicting the oldest retained epoch
// when a cap is set and full.
func (c *Collector) Record(s EpochStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap > 0 && len(c.epochs) >= c.cap {
		c.epochs[c.start] = s
		c.start = (c.start + 1) % len(c.epochs)
		c.dropped++
		return
	}
	c.epochs = append(c.epochs, s)
}

// Reset discards every retained epoch (the cap, if any, is kept) and
// zeroes the dropped counter.
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epochs = c.epochs[:0]
	c.start = 0
	c.dropped = 0
}

// Dropped reports how many epochs have been evicted by the ring cap
// since the last Reset.
func (c *Collector) Dropped() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// orderedLocked returns the retained epochs oldest-first.
func (c *Collector) orderedLocked() []EpochStats {
	out := make([]EpochStats, 0, len(c.epochs))
	out = append(out, c.epochs[c.start:]...)
	out = append(out, c.epochs[:c.start]...)
	return out
}

// Epochs returns a copy of the retained stats, oldest first.
func (c *Collector) Epochs() []EpochStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.orderedLocked()
}

// Summary aggregates the recorded epochs.
type Summary struct {
	Epochs    int
	Txs       int
	Committed int
	Aborted   int

	ControlBreakdown types.PhaseBreakdown
	// Stages aggregates per-stage samples by name, preserving first-seen
	// stage order. Aggregated stats carry Capacity (the summed
	// Duration×Workers of their samples), so Occupancy() is duration-
	// weighted across epochs; Workers is the maximum seen and is
	// informational only.
	Stages []StageStat
}

// Total returns the summed end-to-end latency: the sum of the aggregated
// stage durations.
func (s Summary) Total() time.Duration { return stagesTotal(s.Stages) }

// Stage returns the named stage aggregated across epochs; the zero
// StageStat when no epoch ran it.
func (s Summary) Stage(name string) StageStat { return stageNamed(s.Stages, name) }

// AbortRate returns the aggregate scheduler abort rate.
func (s Summary) AbortRate() float64 {
	total := s.Committed + s.Aborted
	if total == 0 {
		return 0
	}
	return float64(s.Aborted) / float64(total)
}

// EffectiveThroughput returns committed transactions per second given the
// wall-clock window they were processed in — the paper's Fig. 12 metric
// ("the number of valid transactions that pass transaction processing and
// persist their states").
func (s Summary) EffectiveThroughput(window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(s.Committed) / window.Seconds()
}

// Summarize aggregates the retained epochs (all of them when no cap is
// set; the most recent window otherwise).
func (c *Collector) Summarize() Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	var s Summary
	stageIdx := make(map[string]int)
	for _, e := range c.orderedLocked() {
		s.Epochs++
		s.Txs += e.Txs
		s.Committed += e.Committed
		s.Aborted += e.Aborted
		s.ControlBreakdown.Add(e.ControlBreakdown)
		for _, st := range e.Stages {
			i, ok := stageIdx[st.Name]
			if !ok {
				i = len(s.Stages)
				stageIdx[st.Name] = i
				s.Stages = append(s.Stages, StageStat{Name: st.Name})
			}
			s.Stages[i].add(st)
		}
	}
	return s
}

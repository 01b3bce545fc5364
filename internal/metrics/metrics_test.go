package metrics

import (
	"sync"
	"testing"
	"time"

	"github.com/nezha-dag/nezha/internal/types"
)

func TestEpochStatsDerived(t *testing.T) {
	s := EpochStats{
		Txs: 100, Committed: 90, Aborted: 10,
		Stages: []StageStat{
			{Name: "validate", Duration: time.Millisecond},
			{Name: "execute", Duration: 2 * time.Millisecond},
			{Name: "schedule", Duration: 3 * time.Millisecond},
			{Name: "commit", Duration: 4 * time.Millisecond},
		},
	}
	if s.Total() != 10*time.Millisecond {
		t.Fatalf("total = %v", s.Total())
	}
	if got := s.Stage("schedule").Duration; got != 3*time.Millisecond {
		t.Fatalf("schedule stage = %v", got)
	}
	if got := s.Stage("serial"); got != (StageStat{}) {
		t.Fatalf("absent stage = %+v, want zero", got)
	}
	if s.AbortRate() != 0.1 {
		t.Fatalf("abort rate = %v", s.AbortRate())
	}
	if (EpochStats{}).AbortRate() != 0 {
		t.Fatal("empty abort rate not zero")
	}
}

func TestCollectorSummarize(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 3; i++ {
		c.Record(EpochStats{
			Epoch: uint64(i), Txs: 10, Committed: 8, Aborted: 2,
			Stages: []StageStat{{Name: "execute", Duration: time.Millisecond}},
			ControlBreakdown: types.PhaseBreakdown{
				Graph: time.Microsecond, Cycle: 2 * time.Microsecond, Sort: 3 * time.Microsecond,
			},
		})
	}
	sum := c.Summarize()
	if sum.Epochs != 3 || sum.Txs != 30 || sum.Committed != 24 || sum.Aborted != 6 {
		t.Fatalf("summary = %+v", sum)
	}
	if got := sum.Stage("execute").Duration; got != 3*time.Millisecond {
		t.Fatalf("execute = %v", got)
	}
	if sum.Total() != 3*time.Millisecond {
		t.Fatalf("total = %v", sum.Total())
	}
	if sum.ControlBreakdown.Total() != 18*time.Microsecond {
		t.Fatalf("breakdown total = %v", sum.ControlBreakdown.Total())
	}
	if sum.AbortRate() != 0.2 {
		t.Fatalf("abort rate = %v", sum.AbortRate())
	}
	if len(c.Epochs()) != 3 {
		t.Fatal("epochs copy wrong")
	}
}

func TestEffectiveThroughput(t *testing.T) {
	s := Summary{Committed: 500}
	if got := s.EffectiveThroughput(2 * time.Second); got != 250 {
		t.Fatalf("tps = %v", got)
	}
	if s.EffectiveThroughput(0) != 0 {
		t.Fatal("zero window must yield zero")
	}
}

// TestCollectorRing: with a cap set, Record evicts oldest-first, Epochs
// stays ordered, Dropped counts evictions, and Reset clears the window.
func TestCollectorRing(t *testing.T) {
	c := NewCollector()
	c.SetCap(3)
	for i := 0; i < 5; i++ {
		c.Record(EpochStats{Epoch: uint64(i), Txs: 1})
	}
	got := c.Epochs()
	if len(got) != 3 || got[0].Epoch != 2 || got[1].Epoch != 3 || got[2].Epoch != 4 {
		t.Fatalf("retained window = %+v", got)
	}
	if c.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", c.Dropped())
	}
	if sum := c.Summarize(); sum.Epochs != 3 || sum.Txs != 3 {
		t.Fatalf("summary over window = %+v", sum)
	}

	// Shrinking the cap evicts immediately, keeping the newest.
	c.SetCap(1)
	if got := c.Epochs(); len(got) != 1 || got[0].Epoch != 4 {
		t.Fatalf("after shrink: %+v", got)
	}
	if c.Dropped() != 4 {
		t.Fatalf("dropped after shrink = %d, want 4", c.Dropped())
	}

	// Back to unbounded: the window grows again.
	c.SetCap(0)
	for i := 5; i < 8; i++ {
		c.Record(EpochStats{Epoch: uint64(i)})
	}
	if got := c.Epochs(); len(got) != 4 || got[0].Epoch != 4 || got[3].Epoch != 7 {
		t.Fatalf("after uncapping: %+v", got)
	}

	c.Reset()
	if len(c.Epochs()) != 0 || c.Dropped() != 0 {
		t.Fatal("reset did not clear the collector")
	}
	c.Record(EpochStats{Epoch: 99})
	if got := c.Epochs(); len(got) != 1 || got[0].Epoch != 99 {
		t.Fatalf("record after reset: %+v", got)
	}
}

// TestOccupancyWeighted: aggregating stages whose worker counts differ
// weights each epoch by its own Duration×Workers capacity. The old
// max-workers denominator would report 300ms/(200ms×4) = 0.375 here; the
// weighted form reports 300ms/500ms = 0.6.
func TestOccupancyWeighted(t *testing.T) {
	wide := StageStat{Name: "execute", Duration: 100 * time.Millisecond, Workers: 4, Busy: 200 * time.Millisecond}
	if got := wide.Occupancy(); got != 0.5 {
		t.Fatalf("single-sample occupancy = %v, want 0.5", got)
	}
	narrow := StageStat{Name: "execute", Duration: 100 * time.Millisecond, Workers: 1, Busy: 100 * time.Millisecond}
	if got := narrow.Occupancy(); got != 1 {
		t.Fatalf("single-sample occupancy = %v, want 1", got)
	}

	c := NewCollector()
	c.Record(EpochStats{Epoch: 0, Stages: []StageStat{wide}})
	c.Record(EpochStats{Epoch: 1, Stages: []StageStat{narrow}})
	sum := c.Summarize()
	if len(sum.Stages) != 1 {
		t.Fatalf("stages = %+v", sum.Stages)
	}
	agg := sum.Stages[0]
	if agg.Capacity != 500*time.Millisecond {
		t.Fatalf("capacity = %v, want 500ms", agg.Capacity)
	}
	if got := agg.Occupancy(); got != 0.6 {
		t.Fatalf("weighted occupancy = %v, want 0.6", got)
	}
	if agg.Workers != 4 {
		t.Fatalf("max workers = %d, want 4", agg.Workers)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Record(EpochStats{Txs: 1, Committed: 1})
			}
		}()
	}
	wg.Wait()
	if sum := c.Summarize(); sum.Epochs != 800 || sum.Committed != 800 {
		t.Fatalf("summary = %+v", sum)
	}
}

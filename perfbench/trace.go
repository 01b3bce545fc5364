package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/metrics"
	"github.com/nezha-dag/nezha/internal/types"
)

// layer names the package a span's self time is charged to.
type layer uint8

const (
	lDriver       layer = iota // the benchmark's own loop
	lMempool                   // mempool.Pool calls
	lConsensus                 // consensus.Mine
	lDag                       // Node.SubmitBlock (PoW check + ledger insert)
	lUnattributed              // node call time outside every reported stage
	lNode                      // validate, schedule and prefetch stage self time
	lVM                        // execute stage self time (MiniVM + MVCC reads)
	lCore                      // the scheduler
	lStatedb                   // commit stage self time (overlay, MPT update, hash)
	lKVStore                   // kvstore.Store Get / Apply
	lWait                      // per-tx and per-block waits; not part of self time
	numLayers
)

var layerNames = [numLayers]string{"driver", "mempool", "consensus", "dag", "node.unattributed",
	"node", "vm", "core", "statedb", "kvstore", "wait"}

// stageLayer charges a node pipeline stage's self time to a layer.
func stageLayer(name string) layer {
	switch name {
	case "execute":
		return lVM
	case "commit":
		return lStatedb
	}
	return lNode
}

// span is one timed interval. Times are nanoseconds since the tracer's
// origin. Spans of one epoch (or one transaction) share a group id.
type span struct {
	start, end int64
	parent     int32 // index of the parent span; -1 for a round root or a wait
	layer      layer
	name       string
	group      uint64
	// call is the driver-call span active when a wrapper recorded this
	// span; its parent is resolved by containment when the run ends.
	call int32
}

const (
	noCall     = -2 // wrappers record nothing (set-up, checks)
	unresolved = -3 // parent is found from call at the end
)

// tracer holds every span of a traced run in memory until the run ends.
type tracer struct {
	origin time.Time
	call   atomic.Int32

	mu    sync.Mutex
	spans []span
	// coreSpans lists wrapper-recorded scheduler spans of the current
	// driver call, in call order.
	coreSpans []int32
	// callKids lists the structural descendants of each driver-call span.
	callKids map[int32][]int32

	// kvstore counters, updated by the store wrapper.
	getCalls, applyCalls, batchKeys atomic.Int64
	getNS, applyNS                  atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{origin: time.Now(), callKids: make(map[int32][]int32)}
	t.call.Store(noCall)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) add(s span) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// setParent links span i under parent p.
func (t *tracer) setParent(i, p int32) {
	t.mu.Lock()
	t.spans[i].parent = p
	t.mu.Unlock()
}

// openRound opens round r's root span, which the driver's calls hang
// under; nil-safe, returning -1 when not tracing.
func (t *tracer) openRound(r int) int32 {
	if t == nil {
		return -1
	}
	i := t.add(span{start: t.now(), end: -1, parent: -1, layer: lDriver, name: "round", group: uint64(r) << 32, call: -1})
	t.call.Store(i)
	return i
}

// closeRound ends a round's root span; wrappers record nothing until the
// next round opens.
func (t *tracer) closeRound(root int32) {
	if t == nil {
		return
	}
	e := t.now()
	t.mu.Lock()
	t.spans[root].end = e
	t.mu.Unlock()
	t.call.Store(noCall)
}

// begin opens a driver-call span under the round root and makes it the
// call wrapper spans attach to. end closes it.
func (t *tracer) begin(root int32, l layer, name string, group uint64) int32 {
	i := t.add(span{start: t.now(), end: -1, parent: root, layer: l, name: name, group: group, call: -1})
	t.call.Store(i)
	return i
}

func (t *tracer) end(i, root int32) {
	e := t.now()
	t.mu.Lock()
	t.spans[i].end = e
	t.mu.Unlock()
	t.call.Store(root)
}

// child adds a structural span under parent p that belongs to driver call c.
func (t *tracer) child(c, p int32, start, end int64, l layer, name string, group uint64) int32 {
	i := t.add(span{start: start, end: end, parent: p, layer: l, name: name, group: group, call: -1})
	t.mu.Lock()
	t.callKids[c] = append(t.callKids[c], i)
	t.mu.Unlock()
	return i
}

// takeCoreSpans returns the scheduler spans recorded since the last take.
func (t *tracer) takeCoreSpans() []int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.coreSpans
	t.coreSpans = nil
	return out
}

// wrapped records a span from a layer wrapper; the parent is resolved at
// the end from the call active now.
func (t *tracer) wrapped(start, end int64, l layer, name string) int32 {
	c := t.call.Load()
	if c == noCall {
		return -1
	}
	return t.add(span{start: start, end: end, parent: unresolved, layer: l, name: name, call: c})
}

// tracedScheduler times every Schedule call of the node's scheduler.
type tracedScheduler struct {
	inner types.Scheduler
	tr    *tracer
}

func (s *tracedScheduler) Name() string { return s.inner.Name() }

func (s *tracedScheduler) Schedule(sims []*types.SimResult) (*types.Schedule, types.PhaseBreakdown, error) {
	t0 := s.tr.now()
	sched, pb, err := s.inner.Schedule(sims)
	t1 := s.tr.now()
	if c := s.tr.call.Load(); c != noCall {
		i := s.tr.add(span{start: t0, end: t1, parent: unresolved, layer: lCore, name: "Schedule", call: c})
		s.tr.mu.Lock()
		s.tr.coreSpans = append(s.tr.coreSpans, i)
		s.tr.mu.Unlock()
	}
	return sched, pb, err
}

// tracedStore times Get and Apply on the node's store; the other methods
// pass through.
type tracedStore struct {
	kvstore.Store
	tr *tracer
}

func (s *tracedStore) Get(key []byte) ([]byte, bool, error) {
	t0 := s.tr.now()
	v, ok, err := s.Store.Get(key)
	t1 := s.tr.now()
	if s.tr.wrapped(t0, t1, lKVStore, "Get") >= 0 {
		s.tr.getCalls.Add(1)
		s.tr.getNS.Add(t1 - t0)
	}
	return v, ok, err
}

func (s *tracedStore) Apply(b *kvstore.Batch) error {
	t0 := s.tr.now()
	err := s.Store.Apply(b)
	t1 := s.tr.now()
	if s.tr.wrapped(t0, t1, lKVStore, "Apply") >= 0 {
		s.tr.applyCalls.Add(1)
		s.tr.applyNS.Add(t1 - t0)
		s.tr.batchKeys.Add(int64(b.Len()))
	}
	return err
}

// epochSpans hangs one node call's epochs and their stages under the call
// span. The node reports stage durations, not start times, so stages are
// laid end to end: anchored at the scheduler span the wrapper recorded for
// that epoch when there is one, else from the end of the previous epoch.
// Each epoch span runs from the previous epoch's end (or the call start)
// to its last stage's end; the last one is stretched to the call end. The
// parts of the call no stage covers are the node's unattributed time.
func (t *tracer) epochSpans(call int32, stats []metrics.EpochStats, groups []uint64) {
	t.mu.Lock()
	cs := t.spans[call]
	t.mu.Unlock()
	cores := t.takeCoreSpans()
	cursor := cs.start
	for k, st := range stats {
		var sum int64
		schedOff := int64(-1)
		for _, ss := range st.Stages {
			if ss.Name == "schedule" {
				schedOff = sum
			}
			sum += int64(ss.Duration)
		}
		start := cursor
		if k < len(cores) && schedOff >= 0 {
			t.mu.Lock()
			anchored := t.spans[cores[k]].start - schedOff
			t.mu.Unlock()
			if anchored > start {
				start = anchored
			}
		}
		if start+sum > cs.end {
			start = cs.end - sum
		}
		if start < cursor {
			start = cursor
		}
		epochEnd := start + sum
		if k == len(stats)-1 {
			epochEnd = cs.end
		}
		ep := t.child(call, call, cursor, epochEnd, lUnattributed, "epoch", groups[k])
		at := start
		for _, ss := range st.Stages {
			d := int64(ss.Duration)
			si := t.child(call, ep, at, at+d, stageLayer(ss.Name), ss.Name, groups[k])
			if ss.Name == "schedule" && k < len(cores) {
				t.setParent(cores[k], si)
				t.mu.Lock()
				t.spans[cores[k]].group = groups[k]
				c0 := t.spans[cores[k]].start
				t.mu.Unlock()
				pb := st.ControlBreakdown
				for _, ph := range []struct {
					name string
					d    time.Duration
				}{{"acg", pb.Graph}, {"rank", pb.Cycle}, {"sort", pb.Sort}} {
					t.child(call, cores[k], c0, c0+int64(ph.d), lCore, ph.name, groups[k])
					c0 += int64(ph.d)
				}
			}
			at += d
		}
		cursor = epochEnd
	}
}

// resolve attaches every wrapper span to the deepest structural span of
// its driver call that contains its midpoint, or to the call itself.
func (t *tracer) resolve() {
	depth := func(i int32) int {
		d := 0
		for i >= 0 {
			i = t.spans[i].parent
			d++
		}
		return d
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.parent != unresolved {
			continue
		}
		mid := (s.start + s.end) / 2
		best, bestDepth := s.call, -1
		for _, k := range t.callKids[s.call] {
			c := t.spans[k]
			if c.layer == lCore || c.start > mid || c.end < mid {
				continue
			}
			if d := depth(k); d > bestDepth {
				best, bestDepth = k, d
			}
		}
		s.parent = best
		if best >= 0 {
			s.group = t.spans[best].group
		}
	}
}

// interval is a half-open [a, b) range of nanoseconds.
type interval struct{ a, b int64 }

// union merges overlapping intervals in place and returns the merged set.
func union(iv []interval) []interval {
	sort.Slice(iv, func(i, j int) bool { return iv[i].a < iv[j].a })
	out := iv[:0]
	for _, x := range iv {
		if x.b <= x.a {
			continue
		}
		if n := len(out); n > 0 && x.a <= out[n-1].b {
			if x.b > out[n-1].b {
				out[n-1].b = x.b
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

func measure(iv []interval) int64 {
	var sum int64
	for _, x := range iv {
		sum += x.b - x.a
	}
	return sum
}

// selfTimes charges wall time to layers: a span's self time is its
// interval minus the part its children cover, and a layer's self time is
// the union of its spans' self intervals, so concurrent spans of one layer
// (parallel store reads) are not counted twice. It returns nanoseconds per
// layer and the wall time of the round roots.
func (t *tracer) selfTimes() (self [numLayers]int64, wall int64) {
	kids := make([][]int32, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	var perLayer [numLayers][]interval
	for i, s := range t.spans {
		if s.layer == lWait || s.end < s.start {
			continue
		}
		if s.parent == -1 {
			wall += s.end - s.start
		}
		cover := make([]interval, 0, len(kids[i]))
		for _, k := range kids[i] {
			c := t.spans[k]
			a, b := max(c.start, s.start), min(c.end, s.end)
			cover = append(cover, interval{a, b})
		}
		at := s.start
		for _, c := range union(cover) {
			if c.a > at {
				perLayer[s.layer] = append(perLayer[s.layer], interval{at, c.a})
			}
			at = max(at, c.b)
		}
		if s.end > at {
			perLayer[s.layer] = append(perLayer[s.layer], interval{at, s.end})
		}
	}
	for l := range perLayer {
		self[l] = measure(union(perLayer[l]))
	}
	return self, wall
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		rec := struct {
			ID      int     `json:"id"`
			Parent  int32   `json:"parent"`
			Layer   string  `json:"layer"`
			Name    string  `json:"name"`
			Group   uint64  `json:"group"`
			StartUS float64 `json:"start_us"`
			DurUS   float64 `json:"dur_us"`
		}{i, s.parent, layerNames[s.layer], s.name, s.group, float64(s.start) / 1e3, float64(s.end-s.start) / 1e3}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close trace: %w", err)
	}
	return nil
}

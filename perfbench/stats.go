package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	nzmetrics "github.com/nezha-dag/nezha/internal/metrics"
	"github.com/nezha-dag/nezha/internal/mvcc"
	"github.com/nezha-dag/nezha/internal/types"
)

// roundSummary is the work one round did. Every round of a run, and of
// any run with the same workload and seed, must produce the same summary.
type roundSummary struct {
	Root       types.Hash
	Epochs     int
	Offered    int
	Committed  int
	Aborted    int
	ExecFailed int
	Rejected   int
	Lost       int
}

// sample is a value standing for weight observations (a tx latency shared
// by every committed tx of one epoch).
type sample struct {
	v float64
	w int
}

// quantile returns the q-quantile of weighted samples by linear
// interpolation between closest ranks.
func quantile(s []sample, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	s = append([]sample(nil), s...)
	sort.Slice(s, func(i, j int) bool { return s[i].v < s[j].v })
	total := 0
	for _, x := range s {
		total += x.w
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	// value at integer rank r
	at := func(r int) float64 {
		for _, x := range s {
			if r < x.w {
				return x.v
			}
			r -= x.w
		}
		return s[len(s)-1].v
	}
	if frac == 0 {
		return at(lo)
	}
	return at(lo)*(1-frac) + at(lo+1)*frac
}

// perRound holds one sample set per round. End-to-end figures take each
// statistic per round and report the median over rounds, so a round the
// host slowed down (see roundSteal) does not set the run's value.
type perRound [][]sample

// add appends to the current round's samples.
func (p perRound) add(s sample) { p[len(p)-1] = append(p[len(p)-1], s) }

// quantile is the median over rounds of each round's q-quantile.
func (p perRound) quantile(q float64) float64 {
	v := make([]float64, len(p))
	for i, s := range p {
		v[i] = quantile(s, q)
	}
	return median(v)
}

func (p perRound) count() int {
	n := 0
	for _, s := range p {
		n += count(s)
	}
	return n
}

func count(s []sample) int {
	n := 0
	for _, x := range s {
		n += x.w
	}
	return n
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := make([]sample, len(v))
	for i, x := range v {
		s[i] = sample{x, 1}
	}
	return quantile(s, 0.5)
}

// epochSample is one processed epoch as the node reported it, with the
// wall time the driver attributes to it.
type epochSample struct {
	stats nzmetrics.EpochStats
	wall  time.Duration
}

// acc accumulates a run's measurements across rounds.
type acc struct {
	rounds []roundSummary
	setup  []float64 // seconds per round
	// roundTimed is each round's timed wall time and roundSteal the share
	// of busy CPU time the hypervisor took from the machine meanwhile.
	roundTimed []time.Duration
	roundSteal []float64

	epochMS   perRound // one per epoch processed by any replica
	confirmMS perRound // per committed tx
	heapPeak  uint64

	// per-layer inputs
	epochs        []epochSample // every replica's epochs
	mvccDelta     mvcc.Stats
	liveVersions  []float64
	cachedChains  []float64
	diskBytes     int64
	allocBytes    uint64
	gcCycles      uint32
	gcCPU, allCPU float64

	admitNS, admitTxs        int64
	assembleNS, assembles    int64
	markNS, marks            int64
	mineNS, mined            int64
	submitNS, submits        int64
	rejectedBlocks           int
	mempoolWaitMS, dagWaitMS []sample
	heightSpread             []float64
	rejectedBy               map[string]int
}

func (a *acc) sampleHeap() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapInuse > a.heapPeak {
		a.heapPeak = ms.HeapInuse
	}
}

// rtSnap is the runtime state a round's deltas are taken against.
type rtSnap struct {
	alloc  uint64
	numGC  uint32
	gcCPU  float64
	totCPU float64
}

func takeRT() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	r := rtSnap{alloc: ms.TotalAlloc, numGC: ms.NumGC}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.totCPU = s[1].Value.Float64()
	}
	return r
}

func (a *acc) addRT(from, to rtSnap) {
	a.allocBytes += to.alloc - from.alloc
	a.gcCycles += to.numGC - from.numGC
	a.gcCPU += to.gcCPU - from.gcCPU
	a.allCPU += to.totCPU - from.totCPU
}

func (a *acc) addMVCC(from, to mvcc.Stats) {
	d := &a.mvccDelta
	d.Hits += to.Hits - from.Hits
	d.Misses += to.Misses - from.Misses
	d.Prefetched += to.Prefetched - from.Prefetched
	d.PrefetchHits += to.PrefetchHits - from.PrefetchHits
	d.GCVersions += to.GCVersions - from.GCVersions
	a.liveVersions = append(a.liveVersions, float64(to.Versions))
	a.cachedChains = append(a.cachedChains, float64(to.Chains))
}

// totals sums the rounds' work.
func (a *acc) totals() roundSummary {
	var t roundSummary
	for _, r := range a.rounds {
		t.Epochs += r.Epochs
		t.Offered += r.Offered
		t.Committed += r.Committed
		t.Aborted += r.Aborted
		t.ExecFailed += r.ExecFailed
		t.Rejected += r.Rejected
		t.Lost += r.Lost
	}
	return t
}

// roundClock marks the start of a round's timed window.
type roundClock struct {
	start       time.Time
	busy, steal uint64
}

// startRound opens a round's sample sets and its timed window.
func (a *acc) startRound() roundClock {
	a.epochMS = append(a.epochMS, nil)
	a.confirmMS = append(a.confirmMS, nil)
	busy, steal := cpuTicks()
	return roundClock{start: time.Now(), busy: busy, steal: steal}
}

// endRound closes a round's timed window.
func (a *acc) endRound(c roundClock) {
	d := time.Since(c.start)
	busy, steal := cpuTicks()
	a.roundTimed = append(a.roundTimed, d)
	share := 0.0
	if db, ds := busy-c.busy, steal-c.steal; db+ds > 0 {
		share = float64(ds) / float64(db+ds)
	}
	a.roundSteal = append(a.roundSteal, share)
}

// cpuTicks reads the machine's busy (user, nice, system, irq, softirq) and
// stolen CPU ticks from /proc/stat; both are 0 where it is unreadable.
// Steal is time a vCPU wanted to run but the hypervisor ran something
// else: it stretches every wall-clock metric, so runs report it.
func cpuTicks() (busy, steal uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	var v [8]uint64
	for i := range v {
		v[i], _ = strconv.ParseUint(fields[i+1], 10, 64)
	}
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7]
}

// commitTPS is the median over rounds of committed txs per timed second.
func (a *acc) commitTPS() float64 {
	v := make([]float64, len(a.rounds))
	for i, r := range a.rounds {
		v[i] = float64(r.Committed) / a.roundTimed[i].Seconds()
	}
	return median(v)
}

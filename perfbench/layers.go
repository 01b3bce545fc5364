package main

import "time"

// layerMetrics computes the per-layer metrics of a traced run ta, plus
// the self-time split, its residual and the tracing overhead against the
// untraced run ua. Times are per processed epoch (every replica's epochs
// count) unless the name says otherwise.
func layerMetrics(w WorkloadConfig, ta *acc, tr *tracer, ua *acc) []metric {
	t := ta.totals()
	n := len(ta.epochs)
	perEpoch := func(ns int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / 1e6 / float64(n)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	var stage = map[string]struct {
		dur, busy, overlap, capacity time.Duration
		tasks                        int
	}{}
	var wall, stageSum, graph, cycle, sortD time.Duration
	var clusters, maxAddrs, rescued, aborted, committed, txs, execFailed, blocks int
	for _, e := range ta.epochs {
		s := e.stats
		wall += e.wall
		for _, ss := range s.Stages {
			st := stage[ss.Name]
			st.dur += ss.Duration
			st.busy += ss.Busy
			st.overlap += ss.Overlap
			st.capacity += ss.Duration * time.Duration(ss.Workers)
			st.tasks += ss.Tasks
			stage[ss.Name] = st
			stageSum += ss.Duration
		}
		pb := s.ControlBreakdown
		graph += pb.Graph
		cycle += pb.Cycle
		sortD += pb.Sort
		clusters += pb.SortClusters
		maxAddrs += pb.MaxClusterAddrs
		rescued += pb.Rescued
		aborted += s.Aborted
		committed += s.Committed
		txs += s.Txs
		execFailed += s.ExecutionFailed
		blocks += s.BlockConcurrency
	}

	var coreNS int64
	for _, s := range tr.spans {
		if s.layer == lCore && s.name == "Schedule" {
			coreNS += s.end - s.start
		}
	}
	self, traceWall := tr.selfTimes()
	var selfSum int64
	for l := layer(0); l < lWait; l++ {
		selfSum += self[l]
	}
	// statedb's self time is the commit stage minus the store time inside
	// it, so it is the commit stage's self time.
	mv := ta.mvccDelta
	disk := 0.0
	if w.Durable {
		disk = ratio(float64(ta.diskBytes)/(1<<20), float64(t.Committed)/1000)
	}
	untracedTPS, tracedTPS := ua.commitTPS(), ta.commitTPS()
	ms := []metric{
		{"core.schedule_ms", perEpoch(coreNS), "ms", n},
		{"core.acg_ms", perEpoch(int64(graph)), "ms", n},
		{"core.rank_ms", perEpoch(int64(cycle)), "ms", n},
		{"core.sort_ms", perEpoch(int64(sortD)), "ms", n},
		{"core.clusters", ratio(float64(clusters), float64(n)), "count", n},
		{"core.max_cluster_addrs", ratio(float64(maxAddrs), float64(n)), "count", n},
		{"core.abort_rate", ratio(float64(aborted), float64(aborted+committed)), "ratio", aborted + committed},
		{"core.rescued_per_ktx", ratio(float64(rescued)*1000, float64(txs)), "count/ktx", txs},

		{"node.epoch_ms", perEpoch(int64(wall)), "ms", n},
		{"node.validate_ms", perEpoch(int64(stage["validate"].dur)), "ms", n},
		{"node.execute_ms", perEpoch(int64(stage["execute"].dur)), "ms", n},
		{"node.schedule_ms", perEpoch(int64(stage["schedule"].dur)), "ms", n},
		{"node.commit_ms", perEpoch(int64(stage["commit"].dur)), "ms", n},
		{"node.prevalidate_overlap_ms", perEpoch(int64(stage["validate"].overlap)), "ms", n},
		{"node.prefetch_overlap_ms", perEpoch(int64(stage["execute"].overlap)), "ms", n},
		{"node.execute_occupancy", ratio(float64(stage["execute"].busy), float64(stage["execute"].capacity)), "ratio", n},
		{"node.commit_occupancy", ratio(float64(stage["commit"].busy), float64(stage["commit"].capacity)), "ratio", n},
		{"node.unattributed_ms", perEpoch(int64(wall - stageSum)), "ms", n},

		{"vm.us_per_tx", ratio(float64(stage["execute"].busy)/1e3, float64(stage["execute"].tasks)), "us", stage["execute"].tasks},
		{"vm.exec_failed", float64(execFailed), "count", txs},

		{"mvcc.hit_ratio", ratio(float64(mv.Hits), float64(mv.Hits+mv.Misses)), "ratio", int(mv.Hits + mv.Misses)},
		{"mvcc.prefetch_hit_ratio", ratio(float64(mv.PrefetchHits), float64(mv.Prefetched)), "ratio", int(mv.Prefetched)},
		{"mvcc.gc_versions", ratio(float64(mv.GCVersions), float64(t.Epochs)), "count/epoch", t.Epochs},
		{"mvcc.live_versions", mean(ta.liveVersions), "count", len(ta.liveVersions)},
		{"mvcc.cached_chains", mean(ta.cachedChains), "count", len(ta.cachedChains)},

		{"statedb.commit_self_ms", perEpoch(self[lStatedb]), "ms", n},

		{"kvstore.apply_ms", perEpoch(tr.applyNS.Load()), "ms", n},
		{"kvstore.apply_calls", ratio(float64(tr.applyCalls.Load()), float64(n)), "count/epoch", n},
		{"kvstore.keys_written_per_tx", ratio(float64(tr.batchKeys.Load()), float64(committed)), "count", committed},
		{"kvstore.get_calls", ratio(float64(tr.getCalls.Load()), float64(n)), "count/epoch", n},
		{"kvstore.get_ms", perEpoch(tr.getNS.Load()), "ms", n},
		{"kvstore.disk_mb_per_ktx", disk, "MB/ktx", t.Committed},

		{"mempool.admit_us_per_tx", ratio(float64(ta.admitNS)/1e3, float64(ta.admitTxs)), "us", int(ta.admitTxs)},
		{"mempool.rejected", float64(t.Rejected), "count", int(ta.admitTxs)},
		{"mempool.assemble_ms", ratio(float64(ta.assembleNS)/1e6, float64(ta.assembles)), "ms", int(ta.assembles)},
		{"mempool.mark_ms", ratio(float64(ta.markNS)/1e6, float64(ta.marks)), "ms", int(ta.marks)},
		{"mempool.wait_ms_p50", quantile(ta.mempoolWaitMS, 0.5), "ms", count(ta.mempoolWaitMS)},
		{"mempool.wait_ms_p99", quantile(ta.mempoolWaitMS, 0.99), "ms", count(ta.mempoolWaitMS)},

		{"consensus.mine_us_per_block", ratio(float64(ta.mineNS)/1e3, float64(ta.mined)), "us", int(ta.mined)},

		{"dag.submit_us_per_block", ratio(float64(ta.submitNS)/1e3, float64(ta.submits)), "us", int(ta.submits)},
		{"dag.rejected_blocks", float64(ta.rejectedBlocks), "count", int(ta.submits)},
		{"dag.blocks_per_epoch", ratio(float64(blocks), float64(n)), "count", n},
		{"dag.height_spread", mean(ta.heightSpread), "count", len(ta.heightSpread)},
		{"dag.wait_ms_p50", quantile(ta.dagWaitMS, 0.5), "ms", count(ta.dagWaitMS)},
		{"dag.wait_ms_p99", quantile(ta.dagWaitMS, 0.99), "ms", count(ta.dagWaitMS)},

		{"runtime.alloc_kb_per_tx", ratio(float64(ta.allocBytes)/1024, float64(t.Committed)), "KB", t.Committed},
		{"runtime.gc_cpu_fraction", ratio(ta.gcCPU, ta.allCPU), "ratio", int(ta.gcCycles)},
		{"runtime.gc_cycles", ratio(float64(ta.gcCycles)*1000, float64(t.Committed)), "count/ktx", t.Committed},

		{"driver.self_ms", perEpoch(self[lDriver]), "ms", n},
	}
	// The self-time split: every layer's self time per epoch, the node's
	// unattributed time and the driver's own, which with the residual sum
	// to the traced wall time.
	for l := lMempool; l < lWait; l++ {
		if l == lUnattributed {
			continue
		}
		ms = append(ms, metric{"self." + layerNames[l] + "_ms", perEpoch(self[l]), "ms", n})
	}
	ms = append(ms,
		metric{"self.node_unattributed_ms", perEpoch(self[lUnattributed]), "ms", n},
		metric{"trace.wall_ms", perEpoch(traceWall), "ms", n},
		metric{"trace.residual_ms", perEpoch(traceWall - selfSum), "ms", n},
		metric{"trace.untraced_commit_tps", untracedTPS, "tx/s", ua.totals().Committed},
		metric{"trace.traced_commit_tps", tracedTPS, "tx/s", t.Committed},
		metric{"trace.overhead_share", 1 - ratio(tracedTPS, untracedTPS), "ratio", 2},
	)
	return ms
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

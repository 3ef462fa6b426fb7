package main

import (
	"sort"
	"strings"
	"time"
)

// layerMetrics computes the per-layer metrics of a traced pass from its
// spans and counter deltas. Means are over the measured phases (open and
// closed loop) unless a name says otherwise; a ratio whose base is zero
// (per-write figures on a read-only workload) reads 0.
func layerMetrics(tc *tracer, c *cluster, m *measured, refCPUPerOp float64) map[string]metric {
	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{Value: v, Unit: unit} }
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	tc.mu.Lock()
	spans := append([]span(nil), tc.spans...)
	tc.mu.Unlock()

	before, after := m.counters[0], m.counters[1]
	secs := after.at.Sub(before.at).Seconds()
	measuredPhase := func(s span) bool { return s.Phase == phaseOpen || s.Phase == phaseClosed }

	// Aggregates keyed by span kind and name.
	by := map[string]*agg{}
	get := func(k string) *agg {
		a := by[k]
		if a == nil {
			a = &agg{}
			by[k] = a
		}
		return a
	}
	var ops, queries, inserts float64
	var clientCalls, peerCalls, streams float64
	var clientCallDur time.Duration
	var clientBytes int
	var walBytes, walKnown int
	for _, s := range spans {
		if !measuredPhase(s) {
			continue
		}
		switch s.Kind {
		case spanOp:
			ops++
			if s.Name == "query" {
				queries++
			} else {
				inserts++
			}
			get("op:" + s.Name).add(s)
		case spanCall:
			if s.Client {
				clientCalls++
				clientCallDur += s.Dur
				clientBytes += s.Bytes
				get("ccall:" + s.Name).add(s)
			} else {
				peerCalls++
				get("pcall:" + s.Name).add(s)
				if strings.HasPrefix(s.Name, "stream:") {
					streams++
				}
			}
		case spanHandler:
			a := get("handler:" + s.Name)
			a.add(s)
			if s.Client {
				a.client++
				a.cdur += s.Dur
			}
		case spanAppend:
			get("append").add(s)
			if s.Bytes >= 0 {
				walBytes += s.Bytes
				walKnown++
			}
		}
	}
	mean := func(k string) float64 {
		a := by[k]
		if a == nil || a.n == 0 {
			return 0
		}
		return ms(a.dur) / float64(a.n)
	}
	count := func(k string) float64 {
		if a := by[k]; a != nil {
			return float64(a.n)
		}
		return 0
	}
	peerRate := func(prefix string) float64 {
		var n int
		for k, a := range by {
			if strings.HasPrefix(k, "pcall:"+prefix) {
				n += a.n
			}
		}
		return div(float64(n), secs)
	}

	// client
	cs0, cs1 := before.client, after.client
	put("client.query_ms", "ms", mean("op:query"))
	put("client.insert_ms", "ms", mean("op:insert"))
	put("client.rpcs_per_op", "count", div(clientCalls, ops))
	put("client.segments_per_query", "count", div(count("ccall:ds.scanSegment"), queries))
	put("client.hops_per_descent", "count", div(float64(cs1.Hops-cs0.Hops), float64(cs1.Descents-cs0.Descents)))
	put("client.retries_per_op", "count", div(float64(cs1.Retries-cs0.Retries), ops))
	put("client.stale_routes_per_op", "count", div(float64(cs1.StaleRoutes-cs0.StaleRoutes), ops))

	// routecache
	hits := float64(cs1.Cache.Hits - cs0.Cache.Hits)
	misses := float64(cs1.Cache.Misses - cs0.Cache.Misses)
	put("routecache.hit_ratio", "ratio", div(hits, hits+misses))

	// transport: overhead is client call time minus the server handler time
	// of the same method, weighted by the client's calls per method.
	var overhead time.Duration
	var overheadN int
	for k, a := range by {
		if !strings.HasPrefix(k, "ccall:") {
			continue
		}
		h := by["handler:"+strings.TrimPrefix(k, "ccall:")]
		if h == nil || h.client == 0 {
			continue
		}
		overhead += a.dur - time.Duration(float64(h.cdur)/float64(h.client)*float64(a.n))
		overheadN += a.n
	}
	put("transport.rtt_ms", "ms", div(ms(clientCallDur), clientCalls))
	put("transport.overhead_ms", "ms", div(ms(overhead), float64(overheadN)))
	put("transport.bytes_per_op", "B", div(float64(clientBytes), ops))
	put("transport.peer_rpcs_per_s", "1/s", div(peerCalls, secs))
	put("transport.streams_per_s", "1/s", div(streams, secs))

	// datastore
	seg := by["handler:ds.scanSegment"]
	itemsPerSeg := 0.0
	if seg != nil && seg.n > 0 {
		itemsPerSeg = float64(seg.items) / float64(seg.n)
	}
	put("datastore.scan_segment_ms", "ms", mean("handler:ds.scanSegment"))
	put("datastore.items_per_segment", "count", itemsPerSeg)
	put("datastore.insert_ms", "ms", mean("handler:ds.insertItem"))
	put("datastore.structural_changes", "count", float64(m.structural))
	put("datastore.stale_epoch_rejects", "count", float64(after.staleEpoch-before.staleEpoch))

	// router
	put("router.next_hop_ms", "ms", mean("handler:rt.nextHop"))
	put("router.refresh_rpcs_per_s", "1/s", peerRate("rt."))

	// ring
	put("ring.maint_rpcs_per_s", "1/s", peerRate("ring.stabilize")+peerRate("ring.ping"))
	insSucc := 0.0
	if s := c.insSucc.Summarize(); s.Count > 0 {
		insSucc = ms(s.Mean)
	}
	put("ring.insert_succ_ms", "ms", insSucc)

	// replication: pushes travel as bulk streams; the handler runs once per
	// committed push.
	put("replication.pushes_per_write", "count", div(count("handler:rep.push"), inserts))
	put("replication.push_ms", "ms", mean("handler:rep.push"))
	pushKB := 0.0
	if a := by["pcall:stream:rep.push"]; a != nil && a.n > 0 {
		pushKB = float64(a.bytes) / float64(a.n) / 1024
	}
	put("replication.push_kb", "KB", pushKB)

	// gossip
	put("gossip.exchanges_per_s", "1/s", peerRate("gossip.exchange"))
	put("gossip.exchange_ms", "ms", mean("handler:gossip.exchange"))

	// storage
	appendUS, appendP99 := 0.0, 0.0
	if a := by["append"]; a != nil && a.n > 0 {
		appendUS = float64(a.dur.Microseconds()) / float64(a.n)
		sort.Slice(a.durs, func(i, j int) bool { return a.durs[i] < a.durs[j] })
		if p, ok := quantile(a.durs, 0.99); ok {
			appendP99 = float64(p) / float64(time.Microsecond)
		}
	}
	put("storage.append_us", "us", appendUS)
	put("storage.append_p99_us", "us", appendP99)
	put("storage.records_per_write", "count", div(count("append"), inserts))
	// Records whose append triggered a snapshot truncate the log; they are
	// counted at the mean size of the others.
	wal := float64(walBytes)
	if walKnown > 0 {
		wal += float64(walBytes) / float64(walKnown) * (count("append") - float64(walKnown))
	}
	put("storage.wal_bytes_per_write", "B", div(wal, inserts))

	// history: Log.Now advances every peer's journal by one per call.
	events := float64(after.history-before.history) - float64(len(c.nodes))
	put("history.events_per_op", "count", div(events, ops))
	idleEvents := float64(m.idleHistory[1]-m.idleHistory[0]) - float64(len(c.nodes))
	put("history.idle_events_per_s", "1/s", div(idleEvents, m.idleTime.Seconds()))

	// runtime
	put("runtime.allocs_per_op", "count", div(after.runtime[0]-before.runtime[0], ops))
	put("runtime.alloc_kb_per_op", "KB", div((after.runtime[1]-before.runtime[1])/1024, ops))
	put("runtime.gc_cpu_pct", "%", 100*div(after.runtime[2]-before.runtime[2], after.runtime[3]-before.runtime[3]))

	// load generator and tracing cost
	late := sortedCopy(m.open.late)
	lateP99, _ := quantile(late, 0.99)
	put("loadgen.late_p99_ms", "ms", ms(lateP99))
	cpuPerOp := ms(m.open.cpu) / float64(m.open.attempts)
	put("trace.overhead_pct", "%", 100*div(cpuPerOp-refCPUPerOp, refCPUPerOp))
	return out
}

// agg aggregates the spans of one kind and name.
type agg struct {
	n      int
	dur    time.Duration
	bytes  int
	items  int
	client int           // handler spans run on behalf of the client
	cdur   time.Duration // their total time
	durs   []time.Duration
}

func (a *agg) add(s span) {
	a.n++
	a.dur += s.Dur
	a.bytes += s.Bytes
	a.items += s.Items
	if s.Kind == spanAppend {
		a.durs = append(a.durs, s.Dur)
	}
}

// Command perfbench is the repository's end-to-end benchmark: a six-peer
// cluster of core.Standalone peers, each on its own authenticated TCP
// loopback listener with disk storage, driven in-process by one smart
// client. See README.md in this directory for the workloads and metrics.
//
//	perfbench --workload scan-warm --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. --trace 0 prints the end-to-end metrics; --trace 1
// prints the per-layer metrics of a traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: scan-warm, lookup-cold or update-mix")
	seed := flag.Int64("seed", 1, "seed of the generated operations and payloads")
	seconds := flag.Int("seconds", 30, "measured seconds per run (idle window, open loop, closed loop)")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {%s} --seed N --seconds N --trace {0|1}\n", strings.Join(workloadNames(), ","))
		os.Exit(2)
	}
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		fatal(err)
	}
	b := &bench{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, slots: runtime.NumCPU()}
	var res result
	var err error
	if *trace == 1 {
		res, err = b.traced()
	} else {
		res, err = b.untraced()
	}
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// bench is one invocation.
type bench struct {
	w       workload
	seed    int64
	seconds time.Duration
	slots   int // operations in flight at most: one per CPU
}

// stateDir holds the peers' storage and the span files of traced runs,
// relative to the checkout root the benchmark runs from.
const stateDir = ".bench_build/state"

const (
	// clusters is the number of clusters an untraced run sets up and
	// measures; setup_s is the median of their set-up times.
	clusters    = 5
	warmDur     = 500 * time.Millisecond
	probeWrites = 3000 // writes of the write probe on read-only workloads, per run
)

// measured is everything one or more passes over the workload produced.
type measured struct {
	open        openResult
	closed      []sample
	closedRates []float64 // completions per second in each closed-loop window
	probe       []sample
	idleTime    time.Duration
	cpuPerOp    []float64 // open-loop CPU ms per operation, one per pass
	idlePct     []float64 // idle-window CPU % of one core, one per pass
	structural  uint64
	checkErr    error
	wrong       int64
	counters    [2]counters // before and after the measured phases (one pass)
	idleHistory [2]uint64   // journal positions around the idle window (one pass)
}

// merge pools another pass into m.
func (m *measured) merge(o measured) {
	m.open.samples = append(m.open.samples, o.open.samples...)
	m.open.late = append(m.open.late, o.open.late...)
	m.open.attempts += o.open.attempts
	m.open.elapsed += o.open.elapsed
	m.open.cpu += o.open.cpu
	m.closed = append(m.closed, o.closed...)
	m.closedRates = append(m.closedRates, o.closedRates...)
	m.probe = append(m.probe, o.probe...)
	m.idleTime += o.idleTime
	m.cpuPerOp = append(m.cpuPerOp, o.cpuPerOp...)
	m.idlePct = append(m.idlePct, o.idlePct...)
	m.structural += o.structural
	if m.checkErr == nil {
		m.checkErr = o.checkErr
	}
	m.wrong += o.wrong
}

// drive runs one pass over cluster c: warm-up, the idle window, the open
// loop, the closed loop, the write probe of read-only workloads, and the
// final full-range check. The measured phases are the run's seconds split
// idle 2/10, open loop 5/10, closed loop 3/10, each divided by parts: an
// untraced run spreads its measured time over several clusters.
func (b *bench) drive(c *cluster, tc *tracer, part, parts int) measured {
	var m measured
	share := func(tenths int64) time.Duration { return b.seconds * time.Duration(tenths) / 10 / time.Duration(parts) }
	seed := b.seed*100 + int64(part)
	r := &runner{c: c, w: b.w, v: newVersions(), tc: tc}
	base := c.structuralChanges()

	tc.setPhase(phaseWarm)
	r.closedLoop(warmDur, seed+50, b.slots)

	tc.setPhase(phaseIdle)
	m.idleHistory[0] = c.historyNow()
	cpu0, t0 := cpuTime(), time.Now()
	time.Sleep(share(2))
	m.idleTime = time.Since(t0)
	m.idlePct = []float64{100 * (cpuTime() - cpu0).Seconds() / m.idleTime.Seconds()}
	m.idleHistory[1] = c.historyNow()

	m.counters[0] = snapshot(c)
	tc.setPhase(phaseOpen)
	m.open = r.openLoop(share(5), seed, b.slots)
	m.cpuPerOp = []float64{ms(m.open.cpu) / float64(m.open.attempts)}
	tc.setPhase(phaseClosed)
	var closedTime time.Duration
	m.closed, closedTime = r.closedLoop(share(3), seed, b.slots)
	m.closedRates = windowRates(m.closed, closedTime)
	m.counters[1] = snapshot(c)

	tc.setPhase(phaseCheck)
	if b.w.writeShare == 0 {
		m.probe = r.writeProbe(probeWrites/parts, seed)
	}
	m.structural = c.structuralChanges() - base
	m.checkErr = r.finalCheck()
	m.wrong = r.bad.Load()
	return m
}

// outcome folds the passes into the result's correct/attempted/failed
// fields.
func (m *measured) outcome() result {
	attempted := m.open.attempts + len(m.closed) + len(m.probe)
	failed := failures(m.open.samples) + failures(m.closed) + failures(m.probe)
	return result{
		Correct:   m.checkErr == nil && m.wrong == 0 && m.structural == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
}

// untraced is the end-to-end run. It sets up `clusters` clusters one after
// another and measures an equal share of every phase on each, pooling the
// samples: a cluster's own timer phases and connection layout then average
// out instead of setting the whole run's figures.
func (b *bench) untraced() (result, error) {
	var times []float64
	var layouts [][]int
	var m measured
	for i := 0; i < clusters; i++ {
		c, s, err := bootCluster(b.seed, b.slots, nil)
		if err != nil {
			return result{}, err
		}
		times = append(times, s.Seconds)
		layouts = append(layouts, s.Layout)
		p := b.drive(c, nil, i, clusters)
		c.close()
		m.merge(p)
		reads, writes := latencies(p.open.samples, false), latencies(p.open.samples, true)
		fmt.Printf("cluster %d: set-up %.3fs layout %v; %s; %s\n", i+1, s.Seconds, s.Layout, describe("reads", reads), describe("writes", writes))
	}
	res := m.outcome()

	reads := latencies(m.open.samples, false)
	writes := latencies(m.open.samples, true)
	writeSrc := "open loop"
	if len(m.probe) > 0 {
		writes, writeSrc = latencies(m.probe, true), "write probe"
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", median(times))
	p50 := func(lat []time.Duration) float64 { v, _ := quantile(lat, 0.5); return ms(v) }
	put("read_p50_ms", "ms", p50(reads))
	put("write_p50_ms", "ms", p50(writes))
	// The p99s go to the detail line, not to the gated metrics: their spread
	// over ten runs exceeds any bound a benchmark may set (see README.md).
	tails := map[string]metric{}
	for name, lat := range map[string][]time.Duration{"read_p99_ms": reads, "write_p99_ms": writes} {
		if v, ok := quantile(lat, 0.99); ok {
			tails[name] = metric{Value: ms(v), Unit: "ms"}
		}
	}
	// CPU figures are medians over the clusters: a burst of load from
	// outside the process during one cluster's window does not move them.
	put("cpu_ms_per_op", "ms", median(m.cpuPerOp))
	put("peak_ops_s", "ops/s", median(m.closedRates))
	put("idle_cpu_pct", "%", median(m.idlePct))
	put("mem_peak_mb", "MB", peakRSSMB())
	put("ops_ok_frac", "ratio", float64(res.Attempted-res.Failed)/float64(res.Attempted))

	late := sortedCopy(m.open.late)
	lateP99, _ := quantile(late, 0.99)
	fmt.Println(describe("reads (open loop)", reads))
	fmt.Println(describe("writes ("+writeSrc+")", writes))
	detail := map[string]any{
		"workload":             b.w.name,
		"tails":                tails,
		"setup_s_each":         times,
		"layouts":              layouts,
		"open_rate_target":     b.w.rate,
		"open_rate_achieved":   float64(m.open.attempts) / m.open.elapsed.Seconds(),
		"open_attempts":        m.open.attempts,
		"read_samples":         len(reads),
		"write_samples":        len(writes),
		"write_source":         writeSrc,
		"closed_ops":           len(m.closed),
		"closed_windows":       len(m.closedRates),
		"loadgen_late_p99_ms":  ms(lateP99),
		"wrong_results":        m.wrong,
		"late_results":         lateCount(m.open.samples) + lateCount(m.closed) + lateCount(m.probe),
		"structural_changes":   m.structural,
		"final_check_error":    errString(m.checkErr),
		"on_time_limit_ms":     ms(onTime),
		"operations_in_flight": b.slots,
	}
	if d, err := json.Marshal(detail); err == nil {
		fmt.Println("detail " + string(d))
	}
	return res, nil
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// traced is the per-layer run: an untraced reference pass for the tracing
// overhead, then a traced cluster with the transport and storage
// interposers in place.
func (b *bench) traced() (result, error) {
	ref, _, err := bootCluster(b.seed, b.slots, nil)
	if err != nil {
		return result{}, err
	}
	rr := &runner{c: ref, w: b.w, v: newVersions()}
	rr.closedLoop(warmDur, b.seed, b.slots)
	refOpen := rr.openLoop(b.seconds*5/30, b.seed, b.slots)
	refErr := rr.finalCheck()
	ref.close()

	tc := newTracer()
	c, _, err := bootCluster(b.seed, b.slots, tc)
	if err != nil {
		return result{}, err
	}
	defer c.close()
	m := b.drive(c, tc, 0, 1)
	res := m.outcome()
	res.Metrics = layerMetrics(tc, c, &m, ms(refOpen.cpu)/float64(refOpen.attempts))
	// The reference pass is checked like the traced one.
	res.Attempted += refOpen.attempts
	res.Failed += failures(refOpen.samples)
	res.Correct = res.Correct && refErr == nil && rr.bad.Load() == 0

	path, err := tc.write(filepath.Join(stateDir, "spans"), b.w.name+".tsv")
	if err != nil {
		return result{}, err
	}
	fmt.Printf("spans written to %s\n", path)
	return res, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datastore"
	"repro/internal/keyspace"
)

// onTime is the latency limit of one operation: a slower answer counts as
// failed in ops_ok_frac even when it is correct.
const onTime = 250 * time.Millisecond

// scanWidth is the number of keys a scan-warm query covers.
const scanWidth = 64

// workload is one named traffic mix.
type workload struct {
	name string
	// rate is the open-loop Poisson arrival rate (operations per second),
	// fixed in absolute terms at about a fifth of the saturation rate.
	rate float64
	// writeShare is the fraction of operations that are updates.
	writeShare float64
	// cold clears the client's route cache before every operation.
	cold bool
	// width is the number of keys a read covers.
	width int
}

var workloads = map[string]workload{
	"scan-warm":   {name: "scan-warm", rate: 300, width: scanWidth},
	"lookup-cold": {name: "lookup-cold", rate: 350, width: 1, cold: true},
	"update-mix":  {name: "update-mix", rate: 250, width: 1, writeShare: 0.5},
}

// op is one generated operation.
type op struct {
	write bool
	index int // 1-based index of the first key
}

// gen draws operations from a seeded generator; keys are uniform.
type gen struct {
	w   workload
	rng *rand.Rand
}

func newGen(w workload, seed int64, stream uint64) *gen {
	return &gen{w: w, rng: rand.New(rand.NewPCG(uint64(seed), stream))}
}

func (g *gen) next() op {
	o := op{write: g.rng.Float64() < g.w.writeShare}
	o.index = 1 + g.rng.IntN(numItems-g.w.width+1)
	return o
}

// versions tracks, per key, the highest version issued and the highest
// version acknowledged, so every read can be checked. Writes to one key
// are serialized, so the last acknowledged version is the one the key
// holds until the next write to it.
type versions struct {
	next   atomic.Uint64
	wmu    []sync.Mutex // by key index
	issued []atomic.Uint64
	acked  []atomic.Uint64
}

func newVersions() *versions {
	return &versions{
		wmu:    make([]sync.Mutex, numItems+1),
		issued: make([]atomic.Uint64, numItems+1),
		acked:  make([]atomic.Uint64, numItems+1),
	}
}

// sample is one finished operation.
type sample struct {
	write bool
	lat   time.Duration
	ok    bool          // completed on time without error and with a correct result
	done  time.Duration // completion instant, from the start of its phase
}

// runner executes operations against one cluster.
type runner struct {
	c   *cluster
	w   workload
	v   *versions
	tc  *tracer
	bad atomic.Int64 // wrong results (a subset of failures)
}

// exec runs one operation and reports whether it succeeded with a correct
// result.
func (r *runner) exec(ctx context.Context, o op) bool {
	if r.w.cold {
		r.c.cli.Cache().Clear()
	}
	k := itemKey(o.index)
	if o.write {
		r.v.wmu[o.index].Lock()
		defer r.v.wmu[o.index].Unlock()
		v := r.v.next.Add(1)
		r.v.issued[o.index].Store(v)
		ctx, end := r.tc.startOp(ctx, "insert")
		err := r.c.cli.Insert(ctx, datastore.Item{Key: k, Payload: payload(r.c.filler, k, v)})
		end()
		if err != nil {
			return false
		}
		r.v.acked[o.index].Store(v)
		return true
	}
	var buf [scanWidth]uint64
	floor := buf[:r.w.width]
	for i := range floor {
		floor[i] = r.v.acked[o.index+i].Load()
	}
	ctx, end := r.tc.startOp(ctx, "query")
	items, err := r.c.cli.Query(ctx, keyspace.ClosedInterval(k, itemKey(o.index+r.w.width-1)))
	end()
	if err != nil {
		return false
	}
	if !r.correct(o.index, items, floor) {
		r.bad.Add(1)
		return false
	}
	return true
}

// correct checks a read: exactly the keys asked for, each with a payload
// the harness wrote for that key, no older than the last version
// acknowledged before the read began and no newer than the last issued.
func (r *runner) correct(first int, items []datastore.Item, floor []uint64) bool {
	if len(items) != r.w.width {
		return false
	}
	for i, it := range items {
		idx := first + i
		if it.Key != itemKey(idx) {
			return false
		}
		v, ok := parseVersion(r.c.filler, it.Key, it.Payload)
		if !ok || v < floor[i] || v > r.v.issued[idx].Load() {
			return false
		}
	}
	return true
}

// finalCheck is the full-range scan after a workload: the loaded key set,
// each key at a version the harness wrote and at least the last one it saw
// acknowledged.
func (r *runner) finalCheck() error {
	return r.c.checkFull(func(k keyspace.Key, p string) bool {
		idx := int(k / keySpacing)
		v, ok := parseVersion(r.c.filler, k, p)
		return ok && v >= r.v.acked[idx].Load() && v <= r.v.issued[idx].Load()
	})
}

// openResult is what the open-loop phase measured.
type openResult struct {
	samples  []sample
	late     []time.Duration // dispatch instant minus scheduled instant
	attempts int
	elapsed  time.Duration
	cpu      time.Duration
}

// openLoop dispatches Poisson arrivals at the workload's fixed rate for d.
// Each operation is timed from its scheduled instant, so a stall also
// charges the operations queued behind it. At most `slots` operations are
// in flight; an arrival that finds them all busy waits for one.
//
// The dispatcher runs locked to its own thread, and the CPU that thread
// spends (its sleeps, its spin before each arrival, its bookkeeping) is
// taken out of the phase's CPU: cpu_ms_per_op measures the program, not
// the load generator.
func (r *runner) openLoop(d time.Duration, seed int64, slots int) openResult {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	g := newGen(r.w, seed, 1)
	arrivals := rand.New(rand.NewPCG(uint64(seed), 2))
	sem := make(chan struct{}, slots)
	var mu sync.Mutex
	var res openResult
	var wg sync.WaitGroup
	ctx := context.Background()

	cpu0, own0 := cpuTime(), threadCPUTime()
	start := time.Now()
	next := start
	const spinSlack = 300 * time.Microsecond
	for {
		next = next.Add(time.Duration(arrivals.ExpFloat64() / r.w.rate * float64(time.Second)))
		if next.Sub(start) >= d {
			break
		}
		// Sleep to just short of the scheduled instant, then spin: a timer
		// woken on a busy process overshoots by up to a millisecond, and
		// that overshoot would be charged to the operation.
		if wait := time.Until(next); wait > spinSlack {
			time.Sleep(wait - spinSlack)
		}
		for time.Now().Before(next) {
		}
		late := time.Since(next)
		o := g.next()
		sem <- struct{}{}
		res.attempts++
		res.late = append(res.late, late)
		scheduled := next
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok := r.exec(ctx, o)
			lat := time.Since(scheduled)
			<-sem
			mu.Lock()
			res.samples = append(res.samples, sample{write: o.write, lat: lat, ok: ok && lat <= onTime})
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.cpu = cpuTime() - cpu0 - (threadCPUTime() - own0)
	return res
}

// closedLoop runs `workers` workers back to back for d and returns the
// finished operations.
func (r *runner) closedLoop(d time.Duration, seed int64, workers int) ([]sample, time.Duration) {
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := newGen(r.w, seed, uint64(10+w))
			var local []sample
			for time.Now().Before(end) {
				o := g.next()
				t0 := time.Now()
				ok := r.exec(context.Background(), o)
				lat := time.Since(t0)
				local = append(local, sample{write: o.write, lat: lat, ok: ok && lat <= onTime, done: time.Since(start)})
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return out, time.Since(start)
}

// latencies returns the sorted latencies of the samples of one kind.
func latencies(samples []sample, write bool) []time.Duration {
	var out []time.Duration
	for _, s := range samples {
		if s.write == write {
			out = append(out, s.lat)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile returns the nearest-rank q-quantile of sorted values, and false
// when fewer than ten samples lie beyond it.
func quantile(sorted []time.Duration, q float64) (time.Duration, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx], n-1-idx >= 10
}

// rateWindow is the window of the closed loop's throughput samples.
const rateWindow = 250 * time.Millisecond

// windowRates returns, for each whole rateWindow of d, the operations
// completed correctly and on time in it, per second. peak_ops_s is their
// median, which one stalled window does not move the way it moves a mean.
// A phase shorter than rateWindow is one window of its own length.
func windowRates(samples []sample, d time.Duration) []float64 {
	win := min(rateWindow, d)
	if win <= 0 {
		return nil
	}
	counts := make([]float64, int(d/win))
	for _, s := range samples {
		if i := int(s.done / win); s.ok && i < len(counts) {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= win.Seconds()
	}
	return counts
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func failures(samples []sample) int {
	n := 0
	for _, s := range samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// lateCount counts the operations that took longer than onTime.
func lateCount(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.lat > onTime {
			n++
		}
	}
	return n
}

func describe(name string, sorted []time.Duration) string {
	if len(sorted) == 0 {
		return name + " n=0"
	}
	p50, _ := quantile(sorted, 0.5)
	p99, ok := quantile(sorted, 0.99)
	if !ok {
		return fmt.Sprintf("%s n=%d p50=%.3fms p99=(too few samples)", name, len(sorted), ms(p50))
	}
	return fmt.Sprintf("%s n=%d p50=%.3fms p99=%.3fms", name, len(sorted), ms(p50), ms(p99))
}

// writeProbe overwrites n uniformly drawn keys with the payload they were
// loaded with, one write at a time. Read-only workloads report write
// latency from it; because the payloads do not change, their read checks
// and the final check still expect the loaded values.
func (r *runner) writeProbe(n int, seed int64) []sample {
	rng := rand.New(rand.NewPCG(uint64(seed), 3))
	out := make([]sample, 0, n)
	for i := 0; i < n; i++ {
		k := itemKey(1 + rng.IntN(numItems))
		ctx, end := r.tc.startOp(context.Background(), "insert")
		t0 := time.Now()
		err := r.c.cli.Insert(ctx, datastore.Item{Key: k, Payload: payload(r.c.filler, k, 0)})
		lat := time.Since(t0)
		end()
		out = append(out, sample{write: true, lat: lat, ok: err == nil && lat <= onTime})
	}
	return out
}

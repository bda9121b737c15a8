// Command servebench is the repository's serving benchmark. It builds
// the -scale small Web testbed in process, serves it exactly as
// cmd/metasearch -serve (or the -shard-id/-route cluster) does over
// loopback HTTP, drives one workload against it from at most nproc
// in-flight requests, checks the served answers against an uncached
// reference metasearcher, and prints every metric by name and unit.
// The last line of standard output is the run's JSON result.
//
//	servebench --workload refresh --seed 1 --seconds 55 --trace 0 [--out results.jsonl]
//	servebench compare [--spec BENCHMARK.json] parent.jsonl change.jsonl
//
// See README.md for the workloads, the metrics and how to compare runs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/loadgen"
)

// workload is one traffic mix against the serving configuration.
type workload struct {
	name    string
	cluster bool    // serve from the router + shards + replicas cluster
	qps     float64 // open-loop Poisson arrival rate
	// zipf draws queries from a Zipf law over zipfUniverse distinct
	// queries; otherwise every request is a distinct query.
	zipf bool
	// warmup is an unmeasured open-loop lead-in at the same rate.
	warmup time.Duration
	// rebuildEvery, when set, runs RebuildSummary on the rebuild
	// rotation at this interval throughout the window.
	rebuildEvery time.Duration
	// stream sends every other request to /v1/search/stream.
	stream bool
}

var workloads = []workload{
	{name: "cold", qps: 24},
	{name: "zipf", qps: 100, zipf: true, warmup: 3 * time.Second},
	{name: "refresh", qps: 24, rebuildEvery: 2 * time.Second},
	{name: "cluster", cluster: true, qps: 24, stream: true},
}

const (
	// zipfUniverse is larger than the 1,024-entry cache tiers.
	zipfUniverse = 4000
	// capacityShare of the window is the closed-loop capacity phase;
	// the rest is open-loop load.
	capacityShare = 1.0 / 6
	// rounds alternate open-loop and capacity segments in the window;
	// settle is the idle gap after each capacity segment.
	rounds = 5
	settle = 250 * time.Millisecond
	// minOpen open-loop requests at least, so the p99 has 10 samples
	// beyond it: the open-loop phase runs past its share of the window
	// when the seeded arrivals fall short.
	minOpen = 1050
	// capacityCeiling bounds the fresh queries the capacity phase may
	// use per second (well above any measured capacity).
	capacityCeiling = 200
	// checkQueries distinct queries per run are compared with the
	// reference.
	checkQueries = 48
	// lateBoundMS: a run whose generator woke later than this at p99 is
	// invalid.
	lateBoundMS = 100.0
)

// rebuildRotation is the fixed set of databases the refresh workload
// rebuilds, in order: spread over the testbed's registration order.
var rebuildRotation = []int{0, 14, 28, 42}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "servebench compare:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload: cold | zipf | refresh | cluster")
		seed    = flag.Int64("seed", 1, "workload seed: query strings and arrival times")
		seconds = flag.Int("seconds", 55, "measured window per run, seconds")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
		out     = flag.String("out", "", "append this run's result, tagged with workload and seed, to this JSON-lines file")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: need --workload cold|zipf|refresh|cluster, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	res, err := run(*w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	if *out != "" {
		rec := runRecord{Workload: w.name, Seed: *seed, Trace: *trace == 1, Result: res.summary(), Extra: res.extra()}
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			os.Exit(1)
		}
	}
	fmt.Println(string(line))
}

// run executes one run of w and returns its result.
func run(w workload, seed int64, window time.Duration, traced bool) (*result, error) {
	nproc := runtime.NumCPU()
	res := &result{traced: traced}

	t0 := time.Now()
	tb, err := buildTestbed()
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	res.set("setup.testbed_s", time.Since(t0).Seconds())

	capLen := time.Duration(float64(window) * capacityShare)
	openLen := window - capLen
	zipfPool := 0
	if w.zipf {
		zipfPool = zipfUniverse
	}
	events, err := arrivals(w.qps, openLen, seed, zipfPool, minOpen)
	if err != nil {
		return nil, err
	}
	var warm, capEvents []loadgen.Event
	if w.warmup > 0 {
		if warm, err = arrivals(w.qps, w.warmup, seed+1, zipfPool, 0); err != nil {
			return nil, err
		}
	}
	// The pool: a Zipf universe, or one fresh query per open-loop
	// request, per capacity-phase request and per warm-up request.
	const warmDistinct = 8
	poolSize := zipfUniverse
	if w.zipf {
		if capEvents, err = arrivals(capacityCeiling*50, capLen, seed+2, zipfPool, 0); err != nil {
			return nil, err
		}
	} else {
		poolSize = len(events) + int(capacityCeiling*capLen.Seconds()) + warmDistinct
	}
	tq := time.Now()
	queries, err := tb.genQueries(seed, poolSize)
	if err != nil {
		return nil, fmt.Errorf("queries: %w", err)
	}
	if w.zipf {
		// Popularity rank must not follow generation order.
		shuffleQueries(queries, seed)
	}
	note("generated %d distinct queries in %.2fs (seed %d)", len(queries), time.Since(tq).Seconds(), seed)
	rotation := make([]string, len(rebuildRotation))
	for i, di := range rebuildRotation {
		rotation[i] = tb.dbs[di].name
	}
	tb.world = nil // relevance is in the pool; the generator is no longer needed
	text := func(i int) string { return queries[i].text }

	// Set-up, repeated: the first deployment is discarded, the second
	// serves, the third (the cluster) or the reference build
	// (standalone) is the third timing.
	var rec *recorder
	h := hooks{}
	if traced {
		rec = &recorder{}
		h = tracingHooks(rec, w.cluster)
	}
	start := func(h hooks) (*system, error) {
		if w.cluster {
			return tb.startCluster(h)
		}
		return tb.startStandalone(h)
	}
	var setups, summaries, loads, dials []float64
	addSetup := func(s *system) {
		setups = append(setups, s.setupS)
		summaries = append(summaries, s.summaryS)
		loads = append(loads, s.loadS)
		dials = append(dials, s.dialS)
	}
	first, err := start(hooks{})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	addSetup(first)
	first.close()
	sys, err := start(h)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer sys.close()
	addSetup(sys)
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB := float64(mem.HeapAlloc) / (1 << 20)

	ref := &reference{}
	var refWrap func(backend) backend
	if traced {
		ref.rec = &recorder{}
		refWrap = func(b backend) backend { return &tracedBackend{backend: b, rec: ref.rec, layer: layerNode} }
	}
	if w.cluster {
		var third *system
		if third, err = start(hooks{}); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		addSetup(third)
		third.close()
		ref.m, err = tb.loadLocal(tb.referenceOptions(), sys.state, refWrap)
	} else {
		tr := time.Now()
		ref.m, err = tb.buildLocal(tb.referenceOptions(), refWrap)
		setups = append(setups, time.Since(tr).Seconds())
		summaries = append(summaries, time.Since(tr).Seconds())
		loads, dials = append(loads, 0), append(dials, 0)
	}
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if ref.rec != nil {
		ref.rec.take()
	}

	c := newClient(sys.url, nproc)
	defer c.close()
	// Warm-up: open connections and, for zipf, fill the caches.
	next := atomic.Int64{}
	if w.zipf {
		openLoop(c, warm, text, nproc, nil)
	} else {
		next.Store(int64(len(events)))
		for i := 0; i < warmDistinct; i++ {
			c.do(&sample{}, text(int(next.Add(1)-1)))
		}
	}
	c.maxSeen.Store(0)
	if rec != nil {
		rec.take()
	}

	// The measured window: `rounds` rounds, each an open-loop segment
	// followed by a closed-loop capacity segment, so both phases sample
	// the machine across the whole window.
	var rebuilds rebuildLog
	stopRebuild := rebuilds.start(sys, w.rebuildEvery, rotation)
	capNext := func() int {
		i := int(next.Add(1) - 1)
		if w.zipf {
			if i >= len(capEvents) {
				return -1
			}
			return capEvents[i].Query
		}
		if i >= len(queries) {
			return -1
		}
		return i
	}
	if w.zipf {
		next.Store(0)
	}
	var (
		samples, capSamples []*sample
		late                []float64
		capWall             time.Duration
		delta               phaseDelta
	)
	openSeg := openLen.Seconds() / rounds
	for k, i0 := 0, 0; k < rounds; k++ {
		i1 := i0
		for i1 < len(events) && (k == rounds-1 || events[i1].At < float64(k+1)*openSeg) {
			i1++
		}
		seg := append([]loadgen.Event(nil), events[i0:i1]...)
		for j := range seg {
			seg[j].At -= float64(k) * openSeg
		}
		before := snapshot(sys)
		ss, ll := openLoop(c, seg, text, nproc, func(i int, s *sample) {
			// Streamed and traced requests alternate in different
			// periods, so both blocking and streamed requests are traced.
			i += i0
			s.streamed = w.stream && i%2 == 1
			s.traced = traced && (i/2)%2 == 0
		})
		delta.add(before, snapshot(sys))
		samples, late = append(samples, ss...), append(late, ll...)
		cs, cw := closedLoop(c, capLen/rounds, nproc, capNext, text)
		capSamples, capWall = append(capSamples, cs...), capWall+cw
		i0 = i1
		// Let the burst's garbage collection finish before open-loop
		// arrivals resume.
		time.Sleep(settle)
	}
	stopRebuild()
	var spans []span
	if rec != nil {
		spans = rec.take()
	}
	inflightMax := c.maxSeen.Load()

	// Validity of the generator.
	lateP99 := percentile(late, 0.99)
	if lateP99 > lateBoundMS {
		return nil, fmt.Errorf("run invalid: the generator woke %.1fms late at p99 (bound %.0fms)", lateP99, lateBoundMS)
	}
	if inflightMax > int64(nproc) {
		return nil, fmt.Errorf("run invalid: %d requests in flight, cap %d", inflightMax, nproc)
	}

	// Output check against the reference, after the window.
	subset := checkSubset(samples, checkQueries, seed)
	for _, name := range rebuilds.applied() {
		if err := ref.m.RebuildSummary(context.Background(), name); err != nil {
			return nil, fmt.Errorf("reference rebuild of %s: %w", name, err)
		}
	}
	solo := map[int]float64{}
	mismatches := 0
	served := map[int][]*sample{}
	if w.rebuildEvery > 0 {
		// The state moved under the run; ask again now that it is still.
		for _, q := range subset {
			s := &sample{query: q}
			c.do(s, text(q))
			served[q] = append(served[q], s)
		}
	} else {
		in := map[int]bool{}
		for _, q := range subset {
			in[q] = true
		}
		for _, s := range samples {
			if in[s.query] {
				served[s.query] = append(served[s.query], s)
			}
		}
	}
	for _, q := range subset {
		want, sel, err := ref.answer(text(q))
		if err != nil {
			return nil, fmt.Errorf("reference answer: %w", err)
		}
		solo[q] = ms(sel)
		for _, s := range served[q] {
			d := "no answer: " + s.err
			if s.ok {
				d = mismatch(s.reply, want)
			} else if w.rebuildEvery == 0 {
				continue // a failed open-loop request is counted as failed below
			}
			if d != "" {
				mismatches++
				if mismatches <= 5 {
					note("MISMATCH %q: %s", text(q), d)
				}
			}
		}
	}
	note("output check: %d distinct queries, %d mismatches against the reference", len(subset), mismatches)

	res.correct = mismatches == 0
	all := append(append([]*sample(nil), samples...), capSamples...)
	res.attempted = len(all)
	for _, s := range all {
		if !s.ok {
			res.failed++
			if res.failed <= 3 {
				note("FAILED request %q: %s", text(s.query), s.err)
			}
		}
	}
	res.failed += rebuilds.failures()

	m := &measures{
		w: w, nproc: nproc, queries: queries, tb: tb,
		open: samples, capSamples: capSamples, capWall: capWall,
		late: late, inflightMax: inflightMax, delta: delta,
		rebuilds: rebuilds.spans(), spans: spans, solo: solo,
		setups: setups, summaries: summaries, loads: loads, dials: dials,
		heapMB: heapMB,
	}
	if err := m.report(res); err != nil {
		return nil, err
	}
	return res, nil
}

// rebuildLog runs and records the refresh workload's RebuildSummary
// calls.
type rebuildLog struct {
	mu    sync.Mutex
	done  []span
	errs  int
	names []string
}

// start launches the rebuild loop (a no-op without an interval) and
// returns the function that stops it and waits for it to exit.
func (r *rebuildLog) start(sys *system, every time.Duration, rotation []string) (stop func()) {
	if every <= 0 || sys.m == nil {
		return func() {}
	}
	quit := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			name := rotation[i%len(rotation)]
			s := span{db: name, start: time.Now()}
			err := sys.m.RebuildSummary(context.Background(), name)
			s.end = time.Now()
			r.mu.Lock()
			if err != nil {
				r.errs++
			} else {
				r.done = append(r.done, s)
				r.names = append(r.names, name)
			}
			r.mu.Unlock()
		}
	}()
	return func() {
		close(quit)
		<-exited
	}
}

func (r *rebuildLog) spans() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.done...)
}

func (r *rebuildLog) failures() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.errs
}

// applied lists the rebuilt databases for the reference to rebuild
// serially. A rebuild re-samples its database with a seed fixed by the
// database and re-derives every shrunk summary from the current set,
// so rebuilding each distinct database once, in order of its last
// rebuild, reaches the same state as replaying every call.
func (r *rebuildLog) applied() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	last := map[string]int{}
	for i, n := range r.names {
		last[n] = i
	}
	var out []string
	for n := range last {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return last[out[i]] < last[out[j]] })
	return out
}

// usage is the process's CPU time so far.
func usage() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phaseState is the process and registry state at a phase boundary.
type phaseState struct {
	at       time.Time
	counters map[string]int64
	cpu      time.Duration
	mem      runtime.MemStats
}

// snapshot reads every registry of the deployment, summing counters of
// the same name (the shards' caches add up to the cluster's).
func snapshot(sys *system) phaseState {
	st := phaseState{at: time.Now(), counters: map[string]int64{}, cpu: usage()}
	for _, reg := range sys.regs {
		for name, v := range reg.Snapshot().Counters {
			st.counters[name] += v
		}
	}
	runtime.ReadMemStats(&st.mem)
	return st
}

// phaseDelta sums what changed over the open-loop segments.
type phaseDelta struct {
	wall     time.Duration
	counters map[string]int64
	cpu      time.Duration
	alloc    uint64
	gcs      uint32
	pauseNs  uint64
}

func (d *phaseDelta) add(a, b phaseState) {
	if d.counters == nil {
		d.counters = map[string]int64{}
	}
	d.wall += b.at.Sub(a.at)
	for name, v := range b.counters {
		d.counters[name] += v - a.counters[name]
	}
	d.cpu += b.cpu - a.cpu
	d.alloc += b.mem.TotalAlloc - a.mem.TotalAlloc
	d.gcs += b.mem.NumGC - a.mem.NumGC
	d.pauseNs += b.mem.PauseTotalNs - a.mem.PauseTotalNs
}

// runRecord is one line of a --out results file.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Result   summary `json:"result"`
	// Extra holds the workload-specific end-to-end metrics, which the
	// result line leaves out.
	Extra map[string]value `json:"extra,omitempty"`
}

func appendRecord(path string, rec runRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// finite guards JSON output: a metric with no samples reads 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

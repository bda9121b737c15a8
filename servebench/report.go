package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// metricDef is one reported metric: its unit and which direction is
// better. The tables below are the benchmark's metric catalogue; README
// explains each entry and BENCHMARK.json lists the same names.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics every untraced run reports in its result
// line.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"capacity_qps", "1/s", "higher"},
	{"heap_mb", "MB", "lower"},
}

// workloadEndToEnd are end-to-end metrics that spread too widely
// between runs on a shared 2-core machine to gate (the latencies), exist
// only on some workloads, or read the same on every healthy run
// (failed_frac is 0; rk5 is 1 on this testbed, where each topic lives in
// one database). They are printed and kept in --out records, but not in
// the result line.
var workloadEndToEnd = []metricDef{
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"failed_frac", "ratio", "lower"},
	{"rk5", "ratio", "higher"},
	{"ttff_p50_ms", "ms", "lower"},
	{"swap_ms_p50", "ms", "lower"},
}

// perLayer are the metrics every traced run reports; a layer that is
// not on the workload's path reads 0.
var perLayer = []metricDef{
	{"harness.late_ms_p99", "ms", "lower"},
	{"harness.inflight_max", "count", "lower"},
	{"setup.testbed_s", "s", "lower"},
	{"setup.summaries_s", "s", "lower"},
	{"setup.load_s", "s", "lower"},
	{"setup.dial_s", "s", "lower"},
	{"gateway.self_ms_p50", "ms", "lower"},
	{"gateway.self_ms_p99", "ms", "lower"},
	{"gateway.shed_frac", "ratio", "lower"},
	{"cache.result_hit_frac", "ratio", "higher"},
	{"cache.selection_hit_frac", "ratio", "higher"},
	{"cache.collapsed_frac", "ratio", "higher"},
	{"cache.evictions_per_1k", "per_1k", "lower"},
	{"cache.invalidations", "count", "lower"},
	{"cache.hit_ms_p50", "ms", "lower"},
	{"selection.ms_p50", "ms", "lower"},
	{"selection.ms_p99", "ms", "lower"},
	{"selection.solo_ms_p50", "ms", "lower"},
	{"selection.wait_ms_p99", "ms", "lower"},
	{"selection.searcher_frac", "ratio", "lower"},
	{"selection.mc_samples_per_miss", "count", "lower"},
	{"selection.shrink_frac", "ratio", "lower"},
	{"fanout.ms_p50", "ms", "lower"},
	{"fanout.ms_p99", "ms", "lower"},
	{"fanout.node_calls_per_query", "count", "lower"},
	{"search.hedges_per_query", "count", "lower"},
	{"index.query_us_p50", "us", "lower"},
	{"merge.ms_p50", "ms", "lower"},
	{"refresh.rebuilds", "count", "higher"},
	{"refresh.stalled_frac", "ratio", "lower"},
	{"refresh.stalled_ms_p99", "ms", "lower"},
	{"router.self_ms_p50", "ms", "lower"},
	{"router.shard_ms_p50", "ms", "lower"},
	{"router.shard_ms_p99", "ms", "lower"},
	{"router.shard_calls_per_query", "count", "lower"},
	{"router.retries_per_query", "count", "lower"},
	{"wire.call_ms_p50", "ms", "lower"},
	{"wire.node_ms_p50", "ms", "lower"},
	{"wire.overhead_ms_p50", "ms", "lower"},
	{"wire.retries_per_query", "count", "lower"},
	{"wire.failovers", "count", "lower"},
	{"stream.frames_per_query", "count", "lower"},
	{"stream.dropped_frac", "ratio", "lower"},
	{"stream.ttff_minus_selection_ms", "ms", "lower"},
	{"process.cpu_ms_per_query", "ms", "lower"},
	{"process.alloc_kb_per_query", "kB", "lower"},
	{"process.gc_per_1k", "per_1k", "lower"},
	{"process.gc_pause_ms_total", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// value is one metric reading in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the result line's schema.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// result accumulates a run's metrics and printed notes.
type result struct {
	traced            bool
	correct           bool
	attempted, failed int
	values            map[string]float64
}

func (r *result) set(name string, v float64) {
	if r.values == nil {
		r.values = map[string]float64{}
	}
	r.values[name] = finite(v)
}

// note prints one human-readable line (stdout, before the result line).
func note(format string, args ...interface{}) {
	fmt.Printf(format+"\n", args...)
}

// summary is the result line: every end-to-end metric on an untraced
// run, every per-layer metric on a traced one.
func (r *result) summary() summary {
	s := summary{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	for _, d := range defs {
		s.Metrics[d.name] = value{Value: r.values[d.name], Unit: d.unit}
	}
	return s
}

// extra is the workload-specific end-to-end metrics this run measured.
func (r *result) extra() map[string]value {
	out := map[string]value{}
	if r.traced {
		return out
	}
	for _, d := range workloadEndToEnd {
		if v, ok := r.values[d.name]; ok {
			out[d.name] = value{Value: v, Unit: d.unit}
		}
	}
	return out
}

// measures is everything a run observed, turned into metrics by report.
type measures struct {
	w           workload
	nproc       int
	tb          *testbed
	queries     []query
	open        []*sample
	capSamples  []*sample
	capWall     time.Duration
	late        []float64
	inflightMax int64
	delta       phaseDelta // over the open-loop segments
	rebuilds    []span
	spans       []span
	solo        map[int]float64 // query → uncontended selection, ms
	setups      []float64
	summaries   []float64
	loads       []float64
	dials       []float64
	heapMB      float64
}

func (m *measures) report(r *result) error {
	// End to end.
	lat := latencies(m.open)
	if n := beyond(lat, 0.99); n < 10 {
		return fmt.Errorf("run invalid: only %d of %d open-loop samples lie beyond p99 (need 10)", n, len(lat))
	}
	r.set("setup_s", median(m.setups))
	r.set("latency_p50_ms", percentile(lat, 0.50))
	r.set("latency_p99_ms", percentile(lat, 0.99))
	r.set("capacity_qps", float64(okCount(m.capSamples))/m.capWall.Seconds())
	r.set("rk5", m.rk5())
	r.set("heap_mb", m.heapMB)
	r.set("failed_frac", frac(float64(r.failed), float64(r.attempted)))
	note("workload %s: %d open-loop requests at %.0f qps over %.1fs and %d closed-loop requests from %d clients over %.1fs, in %d rounds",
		m.w.name, len(m.open), m.w.qps, m.delta.wall.Seconds(), len(m.capSamples), m.nproc, m.capWall.Seconds(), rounds)
	note("latency over %d samples (%d beyond p99): p50 %.3fms p99 %.3fms", len(lat), beyond(lat, 0.99),
		r.values["latency_p50_ms"], r.values["latency_p99_ms"])
	note("set-up runs (s): %s", floats(m.setups))
	if m.w.stream {
		var ttff []float64
		for _, s := range m.open {
			if s.streamed && s.ok {
				ttff = append(ttff, ms(s.first.Sub(s.scheduled)))
			}
		}
		r.set("ttff_p50_ms", percentile(ttff, 0.5))
	}
	if m.w.rebuildEvery > 0 {
		var swaps []float64
		for _, s := range m.rebuilds {
			swaps = append(swaps, ms(s.dur()))
		}
		r.set("swap_ms_p50", median(swaps))
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), workloadEndToEnd...) {
		if v, ok := r.values[d.name]; ok {
			note("%-32s %14.6g %s", d.name, v, d.unit)
		}
	}

	// Per layer. Counters and process figures are deltas over the
	// open-loop phase, the phase the latency figures describe.
	n := float64(len(m.open))
	r.set("harness.late_ms_p99", percentile(m.late, 0.99))
	r.set("harness.inflight_max", float64(m.inflightMax))
	r.set("setup.summaries_s", median(m.summaries))
	r.set("setup.load_s", median(m.loads))
	r.set("setup.dial_s", median(m.dials))

	d := func(name string) float64 { return float64(m.delta.counters[name]) }
	ratio := func(metric string, num, den float64, numLabel, denLabel string) {
		r.set(metric, frac(num, den))
		note("%-32s %10.4f  (%s %s / %s %s)", metric, frac(num, den), numLabel, commas(num), denLabel, commas(den))
	}
	per := func(metric string, num, scale float64, numLabel string) {
		v := frac(num*scale, n)
		r.set(metric, v)
		note("%-32s %10.4f  (%s %s / requests %s)", metric, v, numLabel, commas(num), commas(n))
	}
	ratio("gateway.shed_frac", d("gateway_shed_total"), d("gateway_requests_total"), "shed", "gateway requests")
	resLookups := d("result_cache_hits_total") + d("result_cache_misses_total")
	ratio("cache.result_hit_frac", d("result_cache_hits_total"), resLookups, "hits", "lookups")
	ratio("cache.selection_hit_frac", d("selection_cache_hits_total"),
		d("selection_cache_hits_total")+d("selection_cache_misses_total"), "hits", "lookups")
	ratio("cache.collapsed_frac", d("result_cache_collapsed_total"), resLookups, "collapsed", "lookups")
	per("cache.evictions_per_1k", d("result_cache_evictions_total")+d("selection_cache_evictions_total"), 1000, "evictions")
	r.set("cache.invalidations", d("result_cache_invalidations_total"))
	selMisses := d("selection_cache_misses_total")
	if selMisses == 0 { // caches disabled: every search selects
		selMisses = d("search_requests_total")
	}
	r.set("selection.mc_samples_per_miss", frac(d("adaptive_mc_samples_total"), selMisses))
	note("%-32s %10.4f  (samples %s / selections %s)", "selection.mc_samples_per_miss",
		frac(d("adaptive_mc_samples_total"), selMisses), commas(d("adaptive_mc_samples_total")), commas(selMisses))
	applied, skipped := d("adaptive_shrinkage_applied_total"), d("adaptive_shrinkage_skipped_total")
	ratio("selection.shrink_frac", applied, applied+skipped, "applied", "decisions")
	per("search.hedges_per_query", d("search_hedges_total"), 1, "hedges")
	per("router.shard_calls_per_query", d("router_shard_calls_total"), 1, "shard calls")
	per("router.retries_per_query", d("router_shard_retries_total"), 1, "retries")
	per("wire.retries_per_query", d("wire_client_retries_total"), 1, "retries")
	r.set("wire.failovers", d("replica_failover_total"))
	ratio("stream.dropped_frac", d("stream_frames_dropped_total"), d("stream_frames_total"), "dropped", "frames")

	r.set("process.cpu_ms_per_query", frac(ms(m.delta.cpu), n))
	r.set("process.alloc_kb_per_query", frac(float64(m.delta.alloc)/1024, n))
	r.set("process.gc_per_1k", frac(float64(m.delta.gcs)*1000, n))
	r.set("process.gc_pause_ms_total", float64(m.delta.pauseNs)/1e6)
	note("process: cpu %.0fms, allocated %.1fMB, %d GCs (pause %.1fms) over %s requests",
		ms(m.delta.cpu), float64(m.delta.alloc)/(1<<20), m.delta.gcs, r.values["process.gc_pause_ms_total"], commas(n))

	// Refresh: requests whose lifetime overlapped a rebuild.
	var stalled []float64
	for _, s := range m.open {
		for _, rb := range m.rebuilds {
			if s.scheduled.Before(rb.end) && rb.start.Before(s.end) {
				stalled = append(stalled, s.latencyMS())
				break
			}
		}
	}
	r.set("refresh.rebuilds", float64(len(m.rebuilds)))
	ratio("refresh.stalled_frac", float64(len(stalled)), n, "stalled", "requests")
	r.set("refresh.stalled_ms_p99", percentile(stalled, 0.99))

	if r.traced {
		m.spanMetrics(r)
		for _, d := range perLayer {
			note("%-32s %14.6g %s", d.name, r.values[d.name], d.unit)
		}
	}
	return nil
}

// latencies are the samples' latencies in ms; a failed request counts
// as infinitely late (it misses every limit).
func latencies(samples []*sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = math.Inf(1)
		if s.ok {
			out[i] = s.latencyMS()
		}
	}
	return out
}

func okCount(samples []*sample) int {
	n := 0
	for _, s := range samples {
		if s.ok {
			n++
		}
	}
	return n
}

// rk5 averages R_5 over the distinct queries answered, from the
// selections in each query's first served reply.
func (m *measures) rk5() float64 {
	seen := map[int]bool{}
	var sum float64
	var count int
	for _, s := range append(append([]*sample(nil), m.open...), m.capSamples...) {
		if !s.ok || seen[s.query] {
			continue
		}
		seen[s.query] = true
		var ranked []int
		for _, sel := range s.reply.Selections {
			ranked = append(ranked, m.tb.index[sel.Database])
		}
		sum += rkAt(m.queries[s.query].rel, ranked, 5)
		count++
	}
	return frac(sum, float64(count))
}

// spanMetrics derives the per-layer timings from the traced requests'
// spans.
func (m *measures) spanMetrics(r *result) {
	spans := m.spans
	link(spans)
	kids := map[int][]int{}
	root := map[string]int{} // trace → front searcher span
	for i := range spans {
		s := &spans[i]
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		} else if s.layer == layerSearcher && s.trace != "" {
			root[s.trace] = i
		}
	}
	var (
		gwSelf, hitMS, selMS, fanMS, mergeMS, indexUS        []float64
		routerSelf, shardMS, callMS, nodeMS, overheadMS      []float64
		ttffMinusSel, frames, waitMS, tracedLat, untracedLat []float64
		selTotal, fanOwnerTotal                              time.Duration
		nodeCalls, traced, missing                           int
	)
	selByQuery := map[int]float64{}
	// owner is a span that fans out to database calls: the standalone
	// searcher, or one shard's searcher. It returns when its selection
	// ended (zero when it made no call).
	owner := func(o int, q int) time.Time {
		calls := kids[o]
		if len(calls) == 0 {
			return time.Time{}
		}
		first, last := spans[calls[0]].start, spans[calls[0]].end
		for _, c := range calls {
			cs := &spans[c]
			if cs.start.Before(first) {
				first = cs.start
			}
			if cs.end.After(last) {
				last = cs.end
			}
			nodeCalls++
			if cs.layer == layerNode {
				indexUS = append(indexUS, float64(cs.dur())/float64(time.Microsecond))
				continue
			}
			callMS = append(callMS, ms(cs.dur()))
			if nk := kids[c]; len(nk) > 0 {
				ns := &spans[nk[0]]
				nodeMS = append(nodeMS, ms(ns.dur()))
				indexUS = append(indexUS, float64(ns.dur())/float64(time.Microsecond))
				overheadMS = append(overheadMS, ms(cs.dur()-ns.dur()))
			}
		}
		own := &spans[o]
		sel := first.Sub(own.start)
		selMS = append(selMS, ms(sel))
		fanMS = append(fanMS, ms(last.Sub(first)))
		mergeMS = append(mergeMS, ms(own.end.Sub(last)))
		selTotal += sel
		fanOwnerTotal += own.dur()
		if ms(sel) > selByQuery[q] {
			selByQuery[q] = ms(sel)
		}
		return first
	}
	for _, s := range m.open {
		if !s.ok {
			continue
		}
		if !s.traced {
			untracedLat = append(untracedLat, s.latencyMS())
			continue
		}
		tracedLat = append(tracedLat, s.latencyMS())
		traced++
		ri, ok := root[s.traceID]
		if !ok {
			missing++
			continue
		}
		rs := &spans[ri]
		gwSelf = append(gwSelf, ms(s.end.Sub(s.sent)-rs.dur()))
		if rs.hit {
			hitMS = append(hitMS, ms(rs.dur()))
		}
		if !m.w.cluster {
			owner(ri, s.query)
			continue
		}
		var slowest time.Duration
		var selEnd time.Time
		for _, ci := range kids[ri] {
			call := &spans[ci]
			shardMS = append(shardMS, ms(call.dur()))
			if call.dur() > slowest {
				slowest = call.dur()
			}
			for _, si := range kids[ci] {
				if first := owner(si, s.query); !first.IsZero() && (selEnd.IsZero() || first.Before(selEnd)) {
					selEnd = first
				}
			}
		}
		routerSelf = append(routerSelf, ms(rs.dur()-slowest))
		if s.streamed {
			frames = append(frames, float64(s.frames))
			if !selEnd.IsZero() {
				ttffMinusSel = append(ttffMinusSel, ms(s.first.Sub(selEnd)))
			}
		}
	}
	for q, sel := range selByQuery {
		if solo, ok := m.solo[q]; ok {
			waitMS = append(waitMS, sel-solo)
		}
	}
	var solo []float64
	for _, v := range m.solo {
		solo = append(solo, v)
	}
	note("trace: %d spans, %d traced requests (%d without a searcher span), %d database calls",
		len(spans), traced, missing, nodeCalls)

	r.set("gateway.self_ms_p50", percentile(gwSelf, 0.5))
	r.set("gateway.self_ms_p99", percentile(gwSelf, 0.99))
	r.set("cache.hit_ms_p50", percentile(hitMS, 0.5))
	r.set("selection.ms_p50", percentile(selMS, 0.5))
	r.set("selection.ms_p99", percentile(selMS, 0.99))
	r.set("selection.solo_ms_p50", percentile(solo, 0.5))
	r.set("selection.wait_ms_p99", percentile(waitMS, 0.99))
	r.set("selection.searcher_frac", frac(float64(selTotal), float64(fanOwnerTotal)))
	r.set("fanout.ms_p50", percentile(fanMS, 0.5))
	r.set("fanout.ms_p99", percentile(fanMS, 0.99))
	r.set("fanout.node_calls_per_query", frac(float64(nodeCalls), float64(traced)))
	r.set("index.query_us_p50", percentile(indexUS, 0.5))
	r.set("merge.ms_p50", percentile(mergeMS, 0.5))
	r.set("router.self_ms_p50", percentile(routerSelf, 0.5))
	r.set("router.shard_ms_p50", percentile(shardMS, 0.5))
	r.set("router.shard_ms_p99", percentile(shardMS, 0.99))
	r.set("wire.call_ms_p50", percentile(callMS, 0.5))
	r.set("wire.node_ms_p50", percentile(nodeMS, 0.5))
	r.set("wire.overhead_ms_p50", percentile(overheadMS, 0.5))
	r.set("stream.frames_per_query", mean(frames))
	r.set("stream.ttff_minus_selection_ms", percentile(ttffMinusSel, 0.5))
	r.set("trace.overhead_frac", frac(percentile(tracedLat, 0.5), percentile(untracedLat, 0.5))-1)
	note("trace overhead: traced p50 %.3fms over %d requests, untraced p50 %.3fms over %d",
		percentile(tracedLat, 0.5), len(tracedLat), percentile(untracedLat, 0.5), len(untracedLat))
}

// commas renders a count with thousands separators.
func commas(v float64) string {
	s := fmt.Sprintf("%.0f", v)
	neg := strings.HasPrefix(s, "-")
	s = strings.TrimPrefix(s, "-")
	var b strings.Builder
	for i, c := range s {
		if i > 0 && (len(s)-i)%3 == 0 {
			b.WriteByte(',')
		}
		b.WriteRune(c)
	}
	if neg {
		return "-" + b.String()
	}
	return b.String()
}

func floats(vs []float64) string {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = fmt.Sprintf("%.3f", v)
	}
	return strings.Join(parts, " ")
}

package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json compare mode reads: each metric's
// better direction and, for end-to-end metrics, its regression bound.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// compareMain reads two --out result files (A: the parent, B: the
// change) and prints, per workload and metric, each side's median and
// quartiles and a verdict:
//
//   - better: B beats A in at least 9 of every 10 seed-paired runs and
//     the medians differ by more than A's quartile spread;
//   - worse: B's median is worse than A's by more than the metric's
//     bound (per-layer metrics, which have none: B loses 9 of 10 pairs
//     and the medians differ by more than A's spread);
//   - same: within the bound, with both sides' spreads within it;
//   - unresolved: anything else — the spread is too wide to say.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with metric directions and bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: servebench compare [--spec BENCHMARK.json] A.jsonl B.jsonl")
	}
	better := map[string]string{}
	bound := map[string]float64{}
	for _, d := range append(append(append([]metricDef(nil), endToEnd...), workloadEndToEnd...), perLayer...) {
		better[d.name] = d.better
	}
	if b, err := os.ReadFile(*specPath); err == nil {
		var sp spec
		if err := json.Unmarshal(b, &sp); err != nil {
			return fmt.Errorf("%s: %w", *specPath, err)
		}
		for _, m := range sp.EndToEnd {
			better[m.Name], bound[m.Name] = m.Better, m.Bound
		}
		for _, m := range sp.PerLayer {
			better[m.Name] = m.Better
		}
	}
	a, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	var keys []string
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	fmt.Printf("%-10s %-32s %5s %-30s %-30s %s\n", "workload", "metric", "runs", "A median [q1, q3]", "B median [q1, q3]", "verdict")
	for _, k := range keys {
		ra, rb := a[k], b[k]
		for _, name := range metricNames(ra, rb) {
			va, vb := ra.values(name), rb.values(name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			fmt.Printf("%-10s %-32s %2d/%-2d %-30s %-30s %s\n", ra.workload, name, len(va), len(vb),
				quart(va), quart(vb), verdict(ra.paired(rb, name), va, vb, better[name], bound[name]))
		}
	}
	return nil
}

// runSet is one workload's runs (traced and untraced apart) from one
// results file, keyed by seed.
type runSet struct {
	workload string
	bySeed   map[int64]runRecord
}

func (s *runSet) values(name string) []float64 {
	var out []float64
	for _, r := range s.bySeed {
		if v, ok := lookup(r, name); ok {
			out = append(out, v)
		}
	}
	return out
}

// paired returns (A, B) values of the runs both sets made with the
// same seed.
func (s *runSet) paired(o *runSet, name string) [][2]float64 {
	var out [][2]float64
	for seed, r := range s.bySeed {
		or, ok := o.bySeed[seed]
		if !ok {
			continue
		}
		va, okA := lookup(r, name)
		vb, okB := lookup(or, name)
		if okA && okB {
			out = append(out, [2]float64{va, vb})
		}
	}
	return out
}

func lookup(r runRecord, name string) (float64, bool) {
	if v, ok := r.Result.Metrics[name]; ok {
		return v.Value, true
	}
	v, ok := r.Extra[name]
	return v.Value, ok
}

func metricNames(a, b *runSet) []string {
	seen := map[string]bool{}
	for _, set := range []*runSet{a, b} {
		for _, r := range set.bySeed {
			for n := range r.Result.Metrics {
				seen[n] = true
			}
			for n := range r.Extra {
				seen[n] = true
			}
		}
	}
	var out []string
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func readRecords(path string) (map[string]*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]*runSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for line := 1; sc.Scan(); line++ {
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		key := rec.Workload
		if rec.Trace {
			key += " (traced)"
		}
		set, ok := out[key]
		if !ok {
			set = &runSet{workload: key, bySeed: map[int64]runRecord{}}
			out[key] = set
		}
		set.bySeed[rec.Seed] = rec
	}
	return out, sc.Err()
}

func quart(vs []float64) string {
	q1, q3 := quartiles(vs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(vs), q1, q3)
}

// verdict applies the rules documented on compareMain. dir is "lower"
// or "higher"; bound is 0 for metrics without one.
func verdict(pairs [][2]float64, a, b []float64, dir string, bound float64) string {
	sign := 1.0 // positive = B better
	if dir == "lower" {
		sign = -1
	}
	ma, mb := median(a), median(b)
	q1a, q3a := quartiles(a)
	q1b, q3b := quartiles(b)
	spreadA := q3a - q1a
	wins, losses := 0, 0
	for _, p := range pairs {
		switch d := sign * (p[1] - p[0]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	beyondSpread := math.Abs(mb-ma) > spreadA
	if len(pairs) > 0 && float64(wins) >= 0.9*float64(len(pairs)) && beyondSpread && sign*(mb-ma) > 0 {
		return "better"
	}
	if bound > 0 && ma != 0 {
		worseBy := -sign * (mb - ma) / math.Abs(ma)
		if worseBy > bound {
			return fmt.Sprintf("worse (%+.1f%%, bound %.0f%%)", 100*worseBy, 100*bound)
		}
		if spreadA <= bound*math.Abs(ma) && q3b-q1b <= bound*math.Abs(mb) {
			return fmt.Sprintf("same (within %.0f%%)", 100*bound)
		}
		return "unresolved"
	}
	if len(pairs) > 0 && float64(losses) >= 0.9*float64(len(pairs)) && beyondSpread && sign*(mb-ma) < 0 {
		return "worse"
	}
	return "unresolved"
}

package main

import (
	"testing"
	"time"
)

func TestLinkResolvesParentsAndTraces(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		// Standalone: two requests for the same terms; the database
		// calls carry no trace id and belong to the request enclosing
		// them.
		0: {layer: layerSearcher, trace: "a", key: "x y", start: at(0), end: at(20)},
		1: {layer: layerSearcher, trace: "b", key: "x y", start: at(30), end: at(50)},
		2: {layer: layerNode, key: "x y", db: "d1", start: at(12), end: at(13)},
		3: {layer: layerNode, key: "x y", db: "d2", start: at(40), end: at(41)},
		4: {layer: layerNode, key: "sampling", db: "d1", start: at(14), end: at(15)},
		// Cluster: router span, two shard calls, each shard's searcher,
		// a wire call under shard s1 and its node-side call.
		5:  {layer: layerSearcher, trace: "c", key: "q", start: at(100), end: at(140)},
		6:  {layer: layerShardCall, trace: "c", shard: "s0", start: at(101), end: at(130)},
		7:  {layer: layerShardCall, trace: "c", shard: "s1", start: at(101), end: at(138)},
		8:  {layer: layerShardSearcher, trace: "c", shard: "s0", key: "q", start: at(102), end: at(129)},
		9:  {layer: layerShardSearcher, trace: "c", shard: "s1", key: "q", start: at(102), end: at(137)},
		10: {layer: layerWireCall, trace: "c", shard: "s1", key: "q", db: "d3", start: at(120), end: at(125)},
		11: {layer: layerWireNode, key: "q", db: "d3", start: at(121), end: at(122)},
		12: {layer: layerWireNode, key: "q", db: "d4", start: at(121), end: at(122)},
	}
	link(spans)
	want := []struct {
		parent int
		trace  string
	}{
		{-1, "a"}, {-1, "b"}, {0, "a"}, {1, "b"}, {-1, ""},
		{-1, "c"}, {5, "c"}, {5, "c"}, {6, "c"}, {7, "c"}, {9, "c"}, {10, "c"}, {-1, ""},
	}
	for i, w := range want {
		if spans[i].parent != w.parent || spans[i].trace != w.trace {
			t.Errorf("span %d (%s): parent %d trace %q, want %d %q",
				i, spans[i].layer, spans[i].parent, spans[i].trace, w.parent, w.trace)
		}
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10, 10.1, 9.9}
	pair := func(b []float64) [][2]float64 {
		var out [][2]float64
		for i := range a {
			out = append(out, [2]float64{a[i], b[i]})
		}
		return out
	}
	scale := func(f float64) []float64 {
		var out []float64
		for _, v := range a {
			out = append(out, v*f)
		}
		return out
	}
	for _, c := range []struct {
		b     []float64
		dir   string
		bound float64
		want  string
	}{
		{scale(0.8), "lower", 0.25, "better"},
		{scale(1.5), "lower", 0.25, "worse (+50.0%, bound 25%)"},
		{scale(1.01), "lower", 0.25, "same (within 25%)"},
		{scale(0.8), "higher", 0, "worse"},
		{scale(1.01), "higher", 0, "unresolved"},
	} {
		if got := verdict(pair(c.b), a, c.b, c.dir, c.bound); got != c.want {
			t.Errorf("verdict(%s, bound %v) = %q, want %q", c.dir, c.bound, got, c.want)
		}
	}
}

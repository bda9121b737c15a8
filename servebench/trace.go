package main

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/gateway"
	"repro/internal/shardmap"
	"repro/internal/telemetry"
)

// Span layers, one per seam the traced run wraps.
const (
	layerSearcher      = "searcher"       // the Searcher handed to the front gateway
	layerShardSearcher = "shard_searcher" // the Searcher handed to a shard's gateway
	layerShardCall     = "shard_call"     // the router's HTTP call to one shard
	layerNode          = "node"           // a standalone database handle's Query
	layerWireCall      = "wire_call"      // a shard's replicated handle's QueryContext
	layerWireNode      = "wire_node"      // the Backend behind a wire.Node
)

// span is one timed call into a layer. trace is the request's trace id
// where the seam can see it (a context or headers); key is the analyzed
// query terms, which ties a call made without a context to the request
// that caused it.
type span struct {
	layer      string
	trace      string
	key        string
	shard      string
	db         string
	start, end time.Time
	hit        bool // searcher: answered from the result cache
	parent     int  // index of the enclosing span, -1 for a root
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

func termsKey(terms []string) string { return strings.Join(terms, " ") }

// tracedSearcher times calls into a gateway.StreamSearcher and keeps
// both of its methods, so the gateway serves blocking and streamed
// requests through the same code paths as without it.
type tracedSearcher struct {
	inner gateway.StreamSearcher
	rec   *recorder
	layer string
	shard string
}

func (t *tracedSearcher) SearchExplained(ctx context.Context, query string, k, perDB int) (*repro.SearchResponse, error) {
	start := time.Now()
	resp, err := t.inner.SearchExplained(ctx, query, k, perDB)
	t.record(ctx, start, resp)
	return resp, err
}

func (t *tracedSearcher) SearchExplainedObserved(ctx context.Context, query string, k, perDB int, obs repro.SearchEvents) (*repro.SearchResponse, error) {
	start := time.Now()
	resp, err := t.inner.SearchExplainedObserved(ctx, query, k, perDB, obs)
	t.record(ctx, start, resp)
	return resp, err
}

func (t *tracedSearcher) record(ctx context.Context, start time.Time, resp *repro.SearchResponse) {
	s := span{layer: t.layer, shard: t.shard, trace: telemetry.RemoteFromContext(ctx).TraceID, start: start, end: time.Now()}
	if resp != nil {
		s.key = termsKey(resp.Terms)
		s.hit = resp.CacheHit
	}
	t.rec.add(s)
}

// tracedBackend times Query on an in-process database. It has exactly
// the wrapped Backend's methods — no QueryContext — so the fan-out
// still takes the in-process path.
type tracedBackend struct {
	backend
	rec   *recorder
	layer string
}

func (t *tracedBackend) Query(terms []string, limit int) (int, []int) {
	start := time.Now()
	n, ids := t.backend.Query(terms, limit)
	t.rec.add(span{layer: t.layer, key: termsKey(terms), db: t.Name(), start: start, end: time.Now()})
	return n, ids
}

// tracedReplica times QueryContext on a shard's replicated handle. It
// embeds the handle, so every other method (Category, NumDocs, Close,
// Ping, ...) is the handle's own.
type tracedReplica struct {
	*repro.ReplicatedDatabase
	rec   *recorder
	shard string
}

func (t *tracedReplica) QueryContext(ctx context.Context, terms []string, limit int) (int, []int, error) {
	start := time.Now()
	n, ids, err := t.ReplicatedDatabase.QueryContext(ctx, terms, limit)
	t.rec.add(span{layer: layerWireCall, trace: telemetry.RemoteFromContext(ctx).TraceID, key: termsKey(terms),
		shard: t.shard, db: t.Name(), start: start, end: time.Now()})
	return n, ids, err
}

// tracedTransport times the router's shard calls, from the request
// until the router closes the response body (the reply or stream has
// been consumed).
type tracedTransport struct {
	base    http.RoundTripper
	rec     *recorder
	shardOf map[string]string // shard address → shard id
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s := span{layer: layerShardCall, trace: req.Header.Get(telemetry.HeaderTraceID), shard: t.shardOf[req.URL.Host], start: time.Now()}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.end = time.Now()
		t.rec.add(s)
		return nil, err
	}
	resp.Body = &closeHook{ReadCloser: resp.Body, done: func() {
		s.end = time.Now()
		t.rec.add(s)
	}}
	return resp, nil
}

type closeHook struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (c *closeHook) Close() error {
	err := c.ReadCloser.Close()
	c.once.Do(c.done)
	return err
}

// tracingHooks interposes the recorder on every seam of a deployment.
// On the cluster the database handles behind wire.Nodes are the
// node-side half of a wire call; standalone they are the fan-out's
// direct targets.
func tracingHooks(rec *recorder, cluster bool) hooks {
	backendLayer := layerNode
	if cluster {
		backendLayer = layerWireNode
	}
	return hooks{
		searcher: func(s gateway.StreamSearcher, shard string) gateway.StreamSearcher {
			layer := layerSearcher
			if shard != "" {
				layer = layerShardSearcher
			}
			return &tracedSearcher{inner: s, rec: rec, layer: layer, shard: shard}
		},
		backend: func(b backend) backend {
			return &tracedBackend{backend: b, rec: rec, layer: backendLayer}
		},
		replica: func(r *repro.ReplicatedDatabase, shard string) repro.SearchableDatabase {
			return &tracedReplica{ReplicatedDatabase: r, rec: rec, shard: shard}
		},
		transport: func(rt http.RoundTripper, shards []shardmap.Shard) http.RoundTripper {
			shardOf := map[string]string{}
			for _, s := range shards {
				shardOf[s.Addr] = s.ID
			}
			return &tracedTransport{base: rt, rec: rec, shardOf: shardOf}
		},
	}
}

// link resolves every span's trace id and parent. Spans that saw a
// trace id are children of the enclosing span one layer up in the same
// trace (same shard where that applies). A database call made without
// a context is the child of the call one layer up with the same query
// terms (and database, for wire calls) whose interval encloses it; it
// inherits that call's trace id. Spans left without a parent belong to
// no traced request (set-up, rebuild sampling, untraced requests).
func link(spans []span) {
	parentLayer := map[string]string{
		layerShardCall:     layerSearcher,
		layerShardSearcher: layerShardCall,
		layerWireCall:      layerShardSearcher,
		layerNode:          layerSearcher,
		layerWireNode:      layerWireCall,
	}
	byTrace := map[string][]int{}
	byKey := map[string][]int{}
	for i := range spans {
		spans[i].parent = -1
		s := &spans[i]
		if s.trace != "" {
			byTrace[s.trace] = append(byTrace[s.trace], i)
		}
		if s.layer == layerSearcher || s.layer == layerWireCall {
			byKey[s.layer+"\x00"+s.key] = append(byKey[s.layer+"\x00"+s.key], i)
		}
	}
	encloses := func(p, c *span) bool { return !p.start.After(c.start) && !p.end.Before(c.end) }
	pick := func(c *span, cands []int, ok func(p *span) bool) int {
		best := -1
		for _, j := range cands {
			p := &spans[j]
			if p.layer != parentLayer[c.layer] || !encloses(p, c) || !ok(p) {
				continue
			}
			if best < 0 || p.start.Before(spans[best].start) {
				best = j
			}
		}
		return best
	}
	// Spans with a trace id first: wire_node resolution below needs the
	// wire calls' trace ids and the shard-call links in place.
	for i := range spans {
		c := &spans[i]
		if c.trace == "" {
			continue
		}
		c.parent = pick(c, byTrace[c.trace], func(p *span) bool {
			// A shard call is matched to its shard's searcher; the
			// router's own span carries no shard.
			return p.shard == "" || c.shard == "" || p.shard == c.shard
		})
	}
	for i := range spans {
		c := &spans[i]
		if c.trace != "" || (c.layer != layerNode && c.layer != layerWireNode) {
			continue
		}
		c.parent = pick(c, byKey[parentLayer[c.layer]+"\x00"+c.key], func(p *span) bool {
			return c.layer == layerNode || p.db == c.db
		})
		if c.parent >= 0 {
			c.trace = spans[c.parent].trace
		}
	}
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/gateway"
	"repro/internal/index"
	"repro/internal/resilience"
	"repro/internal/router"
	"repro/internal/shardmap"
	"repro/internal/slo"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Serving parameters: cmd/metasearch -serve defaults (-k 5 -perdb 3,
// -slo-latency 500ms, -slo-target 0.99) and its fixed world seed.
const (
	maxDBs     = 5
	perDB      = 3
	worldSeed  = 1
	sloLatency = 500 * time.Millisecond
	sloTarget  = 0.99
)

// dbSpec is one testbed database in the sanitized term space that
// cmd/metasearch and cmd/dbnode serve.
type dbSpec struct {
	name     string
	category string
	local    *repro.LocalDatabase
}

// testbed is the -scale small Web testbed, built once per run.
type testbed struct {
	world   *experiments.World
	dbs     []dbSpec
	lexicon []string
	index   map[string]int // database name → position in dbs
}

func buildTestbed() (*testbed, error) {
	sc := experiments.TestScale()
	sc.Seed = worldSeed
	w, err := experiments.BuildWorld(experiments.Web, sc)
	if err != nil {
		return nil, err
	}
	tb := &testbed{world: w, lexicon: experiments.SanitizeAll(w.Lexicon), index: map[string]int{}}
	for i, db := range w.Bed.Databases {
		docs := make([][]string, db.Index.NumDocs())
		for id := range docs {
			docs[id] = experiments.SanitizeAll(db.Index.Doc(index.DocID(id)))
		}
		tb.dbs = append(tb.dbs, dbSpec{
			name:     db.Name,
			category: w.Bed.Tree.Node(db.Category).Name,
			local:    repro.NewLocalDatabaseFromTerms(db.Name, docs),
		})
		tb.index[db.Name] = i
	}
	return tb, nil
}

// query is one distinct workload query: the string the program sees and
// its relevance judgments r(q, D) per testbed database.
type query struct {
	text string
	rel  []int
}

// genQueries draws n distinct short (TREC-6 shaped) queries from the
// testbed's topic model, seeded by seed, in sanitized term space.
func (tb *testbed) genQueries(seed int64, n int) ([]query, error) {
	spec := synth.TREC6QuerySpec(seed)
	// Over-generate a little: the draw may repeat a query.
	spec.Count = n + n/20 + 8
	spec.MinRelevant = 3
	if err := synth.GenQueries(tb.world.Bed, spec); err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []query
	for _, q := range tb.world.Bed.Queries {
		text := strings.Join(experiments.SanitizeAll(q.Terms), " ")
		if seen[text] {
			continue
		}
		seen[text] = true
		rel := make([]int, len(tb.world.Bed.Databases))
		for i, db := range tb.world.Bed.Databases {
			rel[i] = q.RelevantIn(db)
		}
		out = append(out, query{text: text, rel: rel})
		if len(out) == n {
			return out, nil
		}
	}
	return nil, fmt.Errorf("only %d distinct queries from %d draws, need %d", len(out), spec.Count, n)
}

// shuffleQueries permutes qs in place, seeded.
func shuffleQueries(qs []query, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
}

// options are the metasearcher options cmd/metasearch -serve uses for
// the testbed, with the always-on span ring as observer.
func (tb *testbed) options() repro.Options {
	return repro.Options{
		SampleSize:  experiments.TestScale().SampleTarget,
		Scorer:      "cori",
		SeedLexicon: tb.lexicon,
		Seed:        worldSeed,
		Parallelism: runtime.GOMAXPROCS(0),
		// The synthetic vocabulary is not English.
		KeepStopwords: true,
		NoStemming:    true,
		Cache:         repro.CacheConfig{Size: 1024},
		Observer:      telemetry.NewRingCapture(0),
	}
}

// referenceOptions are the serving options with both cache tiers off:
// the reference answers every query on the uncached path.
func (tb *testbed) referenceOptions() repro.Options {
	o := tb.options()
	o.Cache = repro.CacheConfig{Disable: true}
	return o
}

// backend is a database as both planes see it: repro.SearchableDatabase
// plus NumDocs is exactly wire.Backend.
type backend = wire.Backend

// buildLocal is the standalone set-up: New, AddDatabase for every
// testbed database, BuildSummaries. wrap, when non-nil, interposes on
// each database handle.
func (tb *testbed) buildLocal(opts repro.Options, wrap func(backend) backend) (*repro.Metasearcher, error) {
	m := repro.New(opts)
	for _, d := range tb.dbs {
		var db backend = d.local
		if wrap != nil {
			db = wrap(db)
		}
		if err := m.AddDatabase(db, d.category); err != nil {
			return nil, err
		}
	}
	if err := m.BuildSummaries(); err != nil {
		return nil, err
	}
	return m, nil
}

// loadLocal is a metasearcher over the in-process databases that loads
// saved summaries instead of sampling.
func (tb *testbed) loadLocal(opts repro.Options, state []byte, wrap func(backend) backend) (*repro.Metasearcher, error) {
	m := repro.New(opts)
	for _, d := range tb.dbs {
		var db backend = d.local
		if wrap != nil {
			db = wrap(db)
		}
		if err := m.AddDatabase(db, d.category); err != nil {
			return nil, err
		}
	}
	if err := m.Load(bytes.NewReader(state)); err != nil {
		return nil, err
	}
	return m, nil
}

// httpServer is one loopback listener serving a handler.
type httpServer struct {
	srv  *http.Server
	addr string
	done chan struct{}
}

func listen(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{srv: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// close stops the server and waits for its serve loop to end.
func (s *httpServer) close() {
	s.srv.Close()
	<-s.done
}

// gatewayMux mounts a gateway on the query API paths, as cmd/metasearch
// -serve does.
func gatewayMux(gw *gateway.Gateway) http.Handler {
	mux := http.NewServeMux()
	mux.Handle(gateway.PathSearch, gw)
	mux.Handle(gateway.PathSearchStream, gw)
	mux.Handle(gateway.PathHealthz, gw)
	return mux
}

// gatewayOptions are cmd/metasearch's -serve gateway options.
func gatewayOptions(reg *telemetry.Registry) gateway.Options {
	objectives := slo.DefaultObjectives(sloLatency)
	objectives[0].Target = sloTarget
	return gateway.Options{
		DefaultMaxDBs: maxDBs,
		DefaultPerDB:  perDB,
		Metrics:       reg,
		SLO:           slo.New(slo.Config{Objectives: objectives, Registry: reg}),
	}
}

// hooks are the traced run's interposers; the zero value interposes
// nothing (the untraced run serves exactly the program's own objects).
type hooks struct {
	searcher  func(s gateway.StreamSearcher, shard string) gateway.StreamSearcher
	backend   func(b backend) backend
	replica   func(r *repro.ReplicatedDatabase, shard string) repro.SearchableDatabase
	transport func(rt http.RoundTripper, shards []shardmap.Shard) http.RoundTripper
}

// system is one serving deployment under test.
type system struct {
	url      string                // base URL of the gateway the load hits
	m        *repro.Metasearcher   // standalone metasearcher (nil on the cluster)
	state    []byte                // saved summary store (cluster)
	regs     []*telemetry.Registry // every registry whose counters are read
	closers  []func()
	setupS   float64 // New until the first request is accepted
	summaryS float64 // New + AddDatabase + BuildSummaries
	loadS    float64 // Save + every shard's LoadFiltered (cluster)
	dialS    float64 // replica dials (cluster)
}

func (s *system) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// startStandalone serves the testbed from one metasearcher behind the
// gateway, as cmd/metasearch -scale small -serve does.
func (tb *testbed) startStandalone(h hooks) (*system, error) {
	t0 := time.Now()
	m, err := tb.buildLocal(tb.options(), h.backend)
	if err != nil {
		return nil, err
	}
	summaryS := time.Since(t0).Seconds()
	var s gateway.StreamSearcher = m
	if h.searcher != nil {
		s = h.searcher(s, "")
	}
	srv, err := listen(gatewayMux(gateway.New(s, gatewayOptions(m.Metrics()))))
	if err != nil {
		return nil, err
	}
	return &system{
		url:      "http://" + srv.addr,
		m:        m,
		regs:     []*telemetry.Registry{m.Metrics()},
		closers:  []func(){srv.close},
		setupS:   time.Since(t0).Seconds(),
		summaryS: summaryS,
	}, nil
}

// Cluster shape: the router in front of two shard gateways, each
// database served by two wire.Node replicas — the layout of
// scripts/smoke_cluster.sh and internal/router/cluster_e2e_test.go.
const (
	numShards   = 2
	numReplicas = 2
)

// startCluster serves the testbed from the sharded cluster, in process
// over loopback HTTP. The replica nodes stand for already-running
// dbnode processes; set-up time starts at the offline summary build.
func (tb *testbed) startCluster(h hooks) (*system, error) {
	sys := &system{}
	ok := false
	defer func() {
		if !ok {
			sys.close()
		}
	}()

	topo := &shardmap.Topology{Version: shardmap.TopologyVersion}
	for i := 0; i < numShards; i++ {
		// The ring hashes shard IDs only, so the placeholder addresses
		// do not change the assignments.
		topo.Shards = append(topo.Shards, shardmap.Shard{ID: fmt.Sprintf("shard-%02d", i), Addr: "pending:0"})
	}
	for _, d := range tb.dbs {
		var b backend = d.local
		if h.backend != nil {
			b = h.backend(b)
		}
		var addrs []string
		for r := 0; r < numReplicas; r++ {
			srv, err := listen(wire.NewNode(b, wire.ServerOptions{Category: d.category}))
			if err != nil {
				return nil, err
			}
			sys.closers = append(sys.closers, srv.close)
			addrs = append(addrs, srv.addr)
		}
		topo.Databases = append(topo.Databases, shardmap.Database{Name: d.name, Category: d.category, Replicas: addrs})
	}

	t0 := time.Now()
	builder, err := tb.buildLocal(tb.options(), nil)
	if err != nil {
		return nil, err
	}
	sys.summaryS = time.Since(t0).Seconds()
	tLoad := time.Now()
	var buf bytes.Buffer
	if err := builder.Save(&buf); err != nil {
		return nil, err
	}
	sys.state = buf.Bytes()
	sys.loadS += time.Since(tLoad).Seconds()

	for i := range topo.Shards {
		id := topo.Shards[i].ID
		assigns, err := topo.ShardAssignments(id)
		if err != nil {
			return nil, err
		}
		m := repro.New(tb.options())
		keep := map[string]bool{}
		tDial := time.Now()
		for _, a := range assigns {
			rdb, err := repro.DialReplicatedDatabase(context.Background(), a.Replicas, repro.ReplicatedDatabaseOptions{
				Preferred: a.Preferred,
				Breakers:  m.Breakers(),
				Metrics:   m.Metrics(),
				Client:    repro.RemoteDatabaseOptions{Metrics: m.Metrics(), Budget: m.RetryBudget()},
			})
			if err != nil {
				return nil, err
			}
			sys.closers = append(sys.closers, rdb.Close)
			var db repro.SearchableDatabase = rdb
			if h.replica != nil {
				db = h.replica(rdb, id)
			}
			if err := m.AddDatabase(db, rdb.Category()); err != nil {
				return nil, err
			}
			keep[a.Database] = true
		}
		sys.dialS += time.Since(tDial).Seconds()
		tLoad := time.Now()
		if err := m.LoadFiltered(bytes.NewReader(sys.state), func(name string) bool { return keep[name] }); err != nil {
			return nil, err
		}
		sys.loadS += time.Since(tLoad).Seconds()
		gopts := gatewayOptions(m.Metrics())
		gopts.ShardID = id
		var s gateway.StreamSearcher = m
		if h.searcher != nil {
			s = h.searcher(s, id)
		}
		srv, err := listen(gatewayMux(gateway.New(s, gopts)))
		if err != nil {
			return nil, err
		}
		sys.closers = append(sys.closers, srv.close)
		sys.regs = append(sys.regs, m.Metrics())
		topo.Shards[i].Addr = srv.addr
	}

	// The router, wired as cmd/metasearch -route wires it.
	reg := telemetry.NewRegistry()
	var client *http.Client
	if h.transport != nil {
		client = &http.Client{Transport: h.transport(http.DefaultTransport, topo.Shards)}
	}
	rt, err := router.New(topo, router.Options{
		Client:   client,
		Breakers: resilience.NewSet(resilience.BreakerOptions{}, reg),
		Metrics:  reg,
		Tracer:   telemetry.NewTracer(telemetry.NewRingCapture(0)),
		Budget:   resilience.NewBudget(resilience.BudgetOptions{Metrics: reg}),
	})
	if err != nil {
		return nil, err
	}
	gopts := gatewayOptions(reg)
	gopts.ShardHealth = rt.ShardHealth
	gopts.Topology = rt.TopologyStatus
	var s gateway.StreamSearcher = rt
	if h.searcher != nil {
		s = h.searcher(s, "")
	}
	srv, err := listen(gatewayMux(gateway.New(s, gopts)))
	if err != nil {
		return nil, err
	}
	sys.closers = append(sys.closers, srv.close)
	sys.regs = append([]*telemetry.Registry{reg}, sys.regs...)
	sys.url = "http://" + srv.addr
	sys.setupS = time.Since(t0).Seconds()
	ok = true
	return sys, nil
}

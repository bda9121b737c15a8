package main

import (
	"log"
	"log/slog"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/gateway"
	"repro/internal/resilience"
	"repro/internal/router"
	"repro/internal/shardmap"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

// routeConfig is the -route flag bundle.
type routeConfig struct {
	TopologyFile string
	TopologyPoll time.Duration
	ServeAddr    string
	DebugAddr    string
	Deadline     time.Duration
	ProbeEvery   time.Duration
	DrainFor     time.Duration
	MaxDBs       int
	PerDB        int
	MaxInflight  int
	SLOLatency   time.Duration
	SLOTarget    float64
	Trace        bool
}

// runRoute runs the process as the cluster's scatter-gather router: no
// summaries, no selection — every query fans out to the topology's
// shards (each a metasearch -shard-id process) and the per-shard
// rankings merge into the single-process answer. The router serves the
// same gateway API and debug endpoints as a standalone metasearcher,
// with /debug/breakers showing per-shard breakers.
func runRoute(w *experiments.World, cfg routeConfig) error {
	if cfg.TopologyFile == "" {
		log.Fatal("-route requires -topology")
	}
	if cfg.ServeAddr == "" {
		log.Fatal("-route needs -serve: a router has no REPL")
	}

	reg := telemetry.NewRegistry()
	reg.PublishExpvar("metasearch")
	// The router always traces into a bounded ring so the cluster
	// collector can stitch its fan-out spans into cross-process traces;
	// -trace additionally logs every event to stderr.
	ring := telemetry.NewRingCapture(0)
	obs := telemetry.Observer(ring)
	if cfg.Trace {
		h := slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelDebug})
		obs = telemetry.MultiObserver(ring, telemetry.NewLogObserver(slog.New(h)))
	}
	tracer := telemetry.NewTracer(obs)
	breakers := resilience.NewSet(resilience.BreakerOptions{}, reg)
	budget := resilience.NewBudget(resilience.BudgetOptions{Metrics: reg})

	watcher, err := shardmap.NewWatcher(cfg.TopologyFile, shardmap.WatcherOptions{
		Interval: cfg.TopologyPoll,
		Metrics:  reg,
	})
	if err != nil {
		return err
	}
	rt, err := router.New(watcher.Snapshot().Topology, router.Options{
		Timeout:  cfg.Deadline,
		Breakers: breakers,
		Metrics:  reg,
		Tracer:   tracer,
		Budget:   budget,
	})
	if err != nil {
		return err
	}
	for _, s := range rt.Shards() {
		log.Printf("routing to shard %s at %s", s.ID, s.Addr)
	}
	if cfg.ProbeEvery > 0 {
		prober := rt.StartHealthProbes(resilience.ProberOptions{Interval: cfg.ProbeEvery})
		defer prober.Stop()
	}
	// Live reconfiguration: topology version bumps swap the fan-out ring
	// atomically under traffic.
	watcher.Subscribe(func(snap *shardmap.Snapshot) {
		rec, err := rt.ApplyTopology(snap)
		if err != nil {
			log.Printf("topology swap (generation %d) failed: %v", snap.Generation, err)
			return
		}
		log.Printf("topology generation %d applied: shards +%d -%d moved %d",
			rec.Generation, len(rec.ShardsAdded), len(rec.ShardsRemoved), len(rec.ShardsMoved))
	})
	if cfg.TopologyPoll > 0 {
		watcher.Start()
		defer watcher.Stop()
	}

	objectives := slo.DefaultObjectives(cfg.SLOLatency)
	objectives[0].Target = cfg.SLOTarget
	tracker := slo.New(slo.Config{Objectives: objectives, Registry: reg})

	gopts := gateway.Options{
		DefaultMaxDBs:   cfg.MaxDBs,
		DefaultPerDB:    cfg.PerDB,
		DefaultDeadline: cfg.Deadline,
		MaxInflight:     cfg.MaxInflight,
		Metrics:         reg,
		SLO:             tracker,
		// /v1/healthz reports every shard's breaker state and last
		// health-probe result alongside the router's own health, plus
		// the active topology generation and last-swap timestamp.
		ShardHealth: rt.ShardHealth,
		Topology:    rt.TopologyStatus,
	}
	dbg := debugBundle{
		reg:      reg,
		breakers: breakers,
		identity: telemetry.Identity{Instance: cfg.ServeAddr, Role: "router"},
		ring:     ring,
		// The router's /debug/topology is the live ring view: active
		// generation, fan-out targets, and the swap audit trail.
		topology: rt.TopologyHandler(),
	}

	return serve(rt, w, cfg.ServeAddr, cfg.DebugAddr, gopts, tracker, cfg.DrainFor, dbg)
}

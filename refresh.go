package repro

import (
	"context"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/freqest"
	"repro/internal/sampling"
	"repro/internal/summary"
	"repro/internal/telemetry"
	"repro/internal/zipf"
)

// This file implements refresh.Target: the hooks the background
// summary-refresh manager (internal/refresh) uses to keep content
// summaries tracking the live collections. The split of labor: the
// manager owns scheduling, drift decisions, and observability; the
// metasearcher owns sampling and the swap, because only it knows the
// build pipeline and publishes the serving state queries read.

// RefreshableDatabases lists the databases the refresh manager may
// re-sample: those with a live connection, within this process's search
// scope (a cluster shard refreshes only its slice — refreshing another
// shard's nodes would fork the collection-wide statistics the cluster
// merge identity rests on), sorted by name.
func (m *Metasearcher) RefreshableDatabases() []string {
	st := m.state.Load()
	var out []string
	for _, r := range st.dbs {
		if r.db == nil {
			continue
		}
		if st.scope != nil && !st.scope[r.name] {
			continue
		}
		out = append(out, r.name)
	}
	sort.Strings(out)
	return out
}

// StoredSummary returns a database's current unshrunk content summary.
// Summaries are immutable once built (a rebuild publishes a new one).
func (m *Metasearcher) StoredSummary(name string) (*summary.Summary, error) {
	_, r := m.state.Load().find(name)
	if r == nil {
		return nil, fmt.Errorf("repro: unknown database %q", name)
	}
	if r.unshrunk == nil {
		return nil, fmt.Errorf("repro: database %q has no built summary", name)
	}
	return r.unshrunk, nil
}

// ResampleSummary draws a fresh sample of about docs documents from the
// live database and summarizes it, touching no stored state — the cheap
// probe the drift check compares against StoredSummary. The sampler's
// seed is derived from the database name, distinct from the build
// pipeline's seed, so the resample is an independent draw from the
// node's contents while staying deterministic run to run.
func (m *Metasearcher) ResampleSummary(ctx context.Context, name string, docs int) (*summary.Summary, error) {
	st := m.state.Load()
	_, r := st.find(name)
	if r == nil {
		return nil, fmt.Errorf("repro: unknown database %q", name)
	}
	if r.db == nil {
		return nil, fmt.Errorf("repro: database %q has no live connection", name)
	}
	if docs <= 0 {
		docs = 50
	}

	span := m.tracer.Span("refresh.resample",
		telemetry.String("db", name), telemetry.Int("docs", docs))
	defer span.End()
	sctx := telemetry.ContextWithSpan(ctx, span)
	sample, err := sampling.QBS(sctx, &dbSearcher{m: m, db: r.db, ctx: sctx}, sampling.QBSConfig{
		TargetDocs:  docs,
		SeedLexicon: st.lexicon,
		Seed:        refreshSeed(m.opts.Seed, name),
		Span:        span,
		Metrics:     m.reg,
	})
	if err != nil {
		return nil, fmt.Errorf("resampling %s: %w", name, err)
	}
	return summary.FromSample(sample.Docs), nil
}

// RebuildSummary re-samples one database at full build size and
// publishes a new serving state around the result: the node's unshrunk
// summary is replaced, the category summaries it feeds are recomputed,
// and every database is re-shrunk against them (shrinkage ancestors
// share statistics, so one node's drift moves its siblings' shrunk
// summaries too). Sampling — the slow, latency-bound part — runs before
// the writers' lock is taken, and no step blocks a query: queries keep
// reading the old state until the new one is published with one atomic
// store, which also stales both query-cache tiers. The database keeps
// its assigned category: contents drift, classification is re-probed
// only by a full offline rebuild.
func (m *Metasearcher) RebuildSummary(ctx context.Context, name string) error {
	st := m.state.Load()
	if !st.built() {
		return errNotBuilt
	}
	idx, r := st.find(name)
	if r == nil {
		return fmt.Errorf("repro: unknown database %q", name)
	}
	if r.db == nil {
		return fmt.Errorf("repro: database %q has no live connection", name)
	}

	t0 := time.Now()
	span := m.tracer.Span("refresh.rebuild", telemetry.String("db", name))
	defer span.End()
	sctx := telemetry.ContextWithSpan(ctx, span)
	sample, err := sampling.QBS(sctx, &dbSearcher{m: m, db: r.db, ctx: sctx}, sampling.QBSConfig{
		TargetDocs:  m.opts.SampleSize,
		SeedLexicon: st.lexicon,
		Seed:        refreshSeed(m.opts.Seed+int64(idx), name),
		Span:        span,
		Metrics:     m.reg,
	})
	if err != nil {
		return fmt.Errorf("rebuild sampling %s: %w", name, err)
	}
	raw := summary.FromSample(sample.Docs)
	est, errFit := freqest.FitCheckpoints(sample.Checkpoints)
	size, errSize := freqest.EstimateSize(sample, raw)
	if errFit != nil || errSize != nil {
		size = raw.NumDocs
	}
	unshrunk := raw
	if !m.opts.DisableFrequencyEstimation && errFit == nil {
		unshrunk = freqest.Apply(raw, est, size)
	}
	gamma := zipf.FreqPowerLawGamma(est.LawAt(size).Alpha)

	err = m.update(func(next *servingState) error {
		i, cur := next.find(name)
		if cur == nil {
			return fmt.Errorf("repro: database %q disappeared during rebuild", name)
		}
		if !next.built() {
			return errNotBuilt
		}
		c := *cur
		c.unshrunk = unshrunk
		c.sampleLen = raw.SampleSize
		c.sizeEst = size
		c.gamma = gamma
		c.prov = &BuildTelemetry{SampleQueries: sample.Queries}
		if strings.EqualFold(m.opts.Scorer, "redde") {
			c.sampleDocs = sample.Docs
		}
		next.dbs = slices.Clone(next.dbs)
		next.dbs[i] = &c
		m.derive(next, nil)
		return nil
	})
	if err != nil {
		return err
	}
	m.logInfo("summary rebuilt after drift",
		"db", name, "docs", len(sample.Docs), "vocab", raw.Len(),
		"elapsed", time.Since(t0))
	return nil
}

// refreshSeed derives a refresh sampler's seed: the configured base
// offset by a hash of the database name, so refresh draws differ from
// the build pipeline's (seeded base+index) while staying deterministic.
func refreshSeed(base int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return base + int64(h.Sum64()&0x7fffffffffff) + 1
}

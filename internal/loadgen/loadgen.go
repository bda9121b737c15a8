// Package loadgen generates seeded open-loop request schedules: Poisson
// arrivals at a configured rate, each naming a query drawn from a Zipf
// law over the workload's queries (rank r with probability ∝
// (r+1)^-1.1, so a few hot queries dominate and a long tail keeps a
// cache honest). Generating the whole schedule ahead of time is what
// makes a load run open-loop — a request is due at its instant whether
// or not earlier ones have finished — and the seed makes it
// repeatable: the same spec and workload give the same schedule, so two
// builds can be measured under identical load. The serving benchmark
// (servebench/) sends and times the schedules; this package only
// draws them.
package loadgen

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/zipf"
)

// zipfExponent skews query popularity: rank r is drawn with
// probability ∝ (r+1)^-zipfExponent.
const zipfExponent = 1.1

// Phase is one segment of the rate profile: Poisson arrivals at QPS
// for DurationSeconds.
type Phase struct {
	// QPS is the mean arrival rate of this phase.
	QPS float64
	// DurationSeconds is how long the phase lasts.
	DurationSeconds float64
}

// Spec configures schedule generation.
type Spec struct {
	// Phases is the rate profile, played in order.
	Phases []Phase
	// Seed drives arrivals and query choice. Same seed + same spec +
	// same workload ⇒ identical schedule.
	Seed int64
}

// Event is one scheduled request.
type Event struct {
	// At is the scheduled arrival, in seconds since the schedule starts.
	At float64
	// Query indexes Trace.Queries.
	Query int
}

// Trace is a materialized request schedule.
type Trace struct {
	// Queries is the workload: the distinct query strings, hottest rank
	// first.
	Queries []string
	Events  []Event
}

// Generate materializes the request schedule for a workload: Poisson
// arrivals per phase, Zipfian query choice. Deterministic in
// (spec, queries).
func Generate(spec Spec, queries []string) (*Trace, error) {
	if len(queries) == 0 {
		return nil, errors.New("loadgen: workload has no queries")
	}
	if len(spec.Phases) == 0 {
		return nil, errors.New("loadgen: spec has no phases")
	}
	for i, p := range spec.Phases {
		if p.QPS <= 0 || p.DurationSeconds <= 0 {
			return nil, fmt.Errorf("loadgen: phase %d needs positive qps and duration, got %+v", i, p)
		}
	}
	sampler, err := zipf.NewSampler(len(queries), zipfExponent, 0)
	if err != nil {
		return nil, fmt.Errorf("loadgen: %v", err)
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	tr := &Trace{Queries: queries}
	offset := 0.0
	for _, p := range spec.Phases {
		end := offset + p.DurationSeconds
		at := offset
		for {
			at += rng.ExpFloat64() / p.QPS
			if at >= end {
				break
			}
			tr.Events = append(tr.Events, Event{At: at, Query: sampler.Sample(rng)})
		}
		offset = end
	}
	if len(tr.Events) == 0 {
		return nil, errors.New("loadgen: profile too short, no arrivals generated")
	}
	return tr, nil
}

package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro"
	"repro/internal/gateway"
)

// checkSubset draws up to n distinct query indices from the open-loop
// schedule, seeded, in ascending order.
func checkSubset(samples []*sample, n int, seed int64) []int {
	seen := map[int]bool{}
	var distinct []int
	for _, s := range samples {
		if !seen[s.query] {
			seen[s.query] = true
			distinct = append(distinct, s.query)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(distinct), func(i, j int) { distinct[i], distinct[j] = distinct[j], distinct[i] })
	if len(distinct) > n {
		distinct = distinct[:n]
	}
	sort.Ints(distinct)
	return distinct
}

// reference answers queries on an uncached metasearcher, one at a time.
// With rec set (the traced run) it also times each query's uncontended
// selection: from the call to its first database call.
type reference struct {
	m   *repro.Metasearcher
	rec *recorder
}

func (r *reference) answer(text string) (*repro.SearchResponse, time.Duration, error) {
	if r.rec != nil {
		r.rec.take()
	}
	start := time.Now()
	resp, err := r.m.SearchExplained(context.Background(), text, maxDBs, perDB)
	var sel time.Duration
	if r.rec != nil {
		for i, s := range r.rec.take() {
			if d := s.start.Sub(start); i == 0 || d < sel {
				sel = d
			}
		}
	}
	return resp, sel, err
}

// mismatch describes how a served reply differs from the reference
// answer ("" when they agree): the selected databases with their scores
// and shrinkage verdicts in rank order, and the merged ranking.
func mismatch(got *gateway.SearchReply, want *repro.SearchResponse) string {
	if len(got.Selections) != len(want.Selections) {
		return fmt.Sprintf("%d selections, reference %d", len(got.Selections), len(want.Selections))
	}
	for i, s := range got.Selections {
		w := want.Selections[i]
		if s.Database != w.Database || s.Score != w.Score || s.Shrinkage != w.Shrinkage {
			return fmt.Sprintf("selection %d is %s (%v, shrinkage %v), reference %s (%v, shrinkage %v)",
				i+1, s.Database, s.Score, s.Shrinkage, w.Database, w.Score, w.Shrinkage)
		}
	}
	if len(got.Results) != len(want.Results) {
		return fmt.Sprintf("%d results, reference %d", len(got.Results), len(want.Results))
	}
	for i, h := range got.Results {
		w := want.Results[i]
		if h.Database != w.Database || h.DocID != w.DocID || h.Score != w.Score {
			return fmt.Sprintf("result %d is %s/%d (%v), reference %s/%d (%v)",
				i+1, h.Database, h.DocID, h.Score, w.Database, w.DocID, w.Score)
		}
	}
	return ""
}

package repro

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// The snapshot-consistency end-to-end test: a query reads exactly one
// published summary state, from selection through fan-out, no matter
// how often the state is swapped underneath it. Two saved states of one
// testbed that select differently are loaded alternately
// while several goroutines search with both cache tiers on; every answer
// must equal the uncached answer of the state its Generation names.

func TestSnapshotConsistencyUnderLoad(t *testing.T) {
	shards, lexicon := testbedShards(t, 6)
	dbs := make([]*LocalDatabase, len(shards))
	for i, s := range shards {
		dbs[i] = NewLocalDatabaseFromTerms(s.name, s.docs)
	}
	register := func(m *Metasearcher) {
		t.Helper()
		for i, s := range shards {
			if err := m.AddDatabase(dbs[i], s.category); err != nil {
				t.Fatal(err)
			}
		}
	}
	var queries []string
	for _, s := range shards {
		for _, d := range s.docs[:3] {
			queries = append(queries, d[0]+" "+d[len(d)-1])
		}
	}

	// Two states of the same databases, summarized from samples of
	// different size, so their selections differ.
	var states [2][]byte
	for i, size := range []int{15, 80} {
		opts := testbedOptions(lexicon)
		opts.SampleSize = size
		m := New(opts)
		register(m)
		if err := m.BuildSummaries(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		states[i] = buf.Bytes()
	}

	// The uncached reference answer of each state.
	type answer struct {
		sels    []Selection
		results []Result
	}
	refOpts := testbedOptions(lexicon)
	refOpts.Cache.Disable = true
	ref := New(refOpts)
	register(ref)
	var want [2]map[string]answer
	for i := range states {
		if err := ref.Load(bytes.NewReader(states[i])); err != nil {
			t.Fatal(err)
		}
		want[i] = map[string]answer{}
		for _, q := range queries {
			resp, err := ref.SearchExplained(context.Background(), q, 3, 5)
			if err != nil {
				t.Fatalf("reference %q: %v", q, err)
			}
			want[i][q] = answer{resp.Selections, resp.Results}
		}
	}
	differ := 0
	for _, q := range queries {
		if !reflect.DeepEqual(want[0][q].sels, want[1][q].sels) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("the two states select identically; the test could not see a mixed answer")
	}

	m := New(testbedOptions(lexicon)) // both cache tiers on
	register(m)
	// stateAt maps each generation to the state published under it. The
	// loader is the only writer, so the generation a Load publishes is
	// known before it starts: readers can never see an unrecorded one.
	var stateAt sync.Map
	load := func(i int) {
		t.Helper()
		stateAt.Store(m.state.Load().gen+1, i)
		if err := m.Load(bytes.NewReader(states[i])); err != nil {
			t.Fatal(err)
		}
	}
	load(0)

	const readers = 4
	var (
		wg     sync.WaitGroup
		stop   = make(chan struct{})
		failed [readers]error
		gens   [readers]map[uint64]bool
	)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gens[g] = map[uint64]bool{}
			var last uint64
			for n := g; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[n%len(queries)]
				resp, err := m.SearchExplained(context.Background(), q, 3, 5)
				if err != nil {
					failed[g] = err
					return
				}
				gen := resp.Generation
				if gen < last {
					failed[g] = fmt.Errorf("generation went back from %d to %d", last, gen)
					return
				}
				last = gen
				gens[g][gen] = true
				i, ok := stateAt.Load(gen)
				if !ok {
					failed[g] = fmt.Errorf("answer from generation %d, which no Load published", gen)
					return
				}
				w := want[i.(int)][q]
				if !reflect.DeepEqual(resp.Selections, w.sels) || !reflect.DeepEqual(resp.Results, w.results) {
					failed[g] = fmt.Errorf("%q at generation %d (state %d) differs from that state's uncached answer:\n got %+v\nwant %+v",
						q, gen, i, resp.Selections, w.sels)
					return
				}
			}
		}(g)
	}
	for i := 1; i <= 20; i++ {
		load(i % 2)
	}
	close(stop)
	wg.Wait()

	seen := map[uint64]bool{}
	for g := 0; g < readers; g++ {
		if failed[g] != nil {
			t.Errorf("reader %d: %v", g, failed[g])
		}
		for gen := range gens[g] {
			seen[gen] = true
		}
	}
	if len(seen) < 2 {
		t.Errorf("queries saw %d generation(s); the swaps did not overlap the load", len(seen))
	}
}

// TestSnapshotConsistencyUnderRefresh pins the same invariant on the
// refresh path: the writer is a RebuildSummary loop over the live
// databases instead of alternating Loads. Each rebuild re-samples one
// database and re-shrinks every summary, so the first pass over the
// databases publishes a different state each time; the state each
// rebuild published is saved, and after the run every answer a reader
// saw must equal the uncached answer of the saved state its Generation
// names.
func TestSnapshotConsistencyUnderRefresh(t *testing.T) {
	shards, lexicon := testbedShards(t, 6)
	var queries []string
	for _, s := range shards {
		for _, d := range s.docs[:3] {
			queries = append(queries, d[0]+" "+d[len(d)-1])
		}
	}
	newMetasearcher := func(opts Options) *Metasearcher {
		t.Helper()
		m := New(opts)
		for _, s := range shards {
			if err := m.AddDatabase(NewLocalDatabaseFromTerms(s.name, s.docs), s.category); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}

	m := newMetasearcher(testbedOptions(lexicon)) // both cache tiers on
	if err := m.BuildSummaries(); err != nil {
		t.Fatal(err)
	}
	// saved maps each published generation to its state. The rebuild
	// loop is the only writer, so the state read back after a rebuild
	// returns is the one it published. Save itself republishes that
	// state under the next generation, which holds the same summaries.
	saved := map[uint64][]byte{}
	save := func() {
		t.Helper()
		gen := m.state.Load().gen
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		saved[gen] = buf.Bytes()
		saved[m.state.Load().gen] = buf.Bytes()
	}
	save()

	type answer struct {
		sels    []Selection
		results []Result
	}
	type seenKey struct {
		gen uint64
		q   string
	}
	const readers = 4
	var (
		wg     sync.WaitGroup
		stop   = make(chan struct{})
		failed [readers]error
		seen   [readers]map[seenKey]answer
	)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seen[g] = map[seenKey]answer{}
			var last uint64
			for n := g; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[n%len(queries)]
				resp, err := m.SearchExplained(context.Background(), q, 3, 5)
				if err != nil {
					failed[g] = err
					return
				}
				if resp.Generation < last {
					failed[g] = fmt.Errorf("generation went back from %d to %d", last, resp.Generation)
					return
				}
				last = resp.Generation
				k := seenKey{resp.Generation, q}
				a := answer{resp.Selections, resp.Results}
				if prev, ok := seen[g][k]; ok && !reflect.DeepEqual(prev, a) {
					failed[g] = fmt.Errorf("%q got two different answers at generation %d", q, k.gen)
					return
				}
				seen[g][k] = a
			}
		}(g)
	}
	for i := 0; i < 2*len(shards); i++ {
		if err := m.RebuildSummary(context.Background(), shards[i%len(shards)].name); err != nil {
			t.Fatal(err)
		}
		save()
	}
	close(stop)
	wg.Wait()

	// The uncached reference answer of every saved state.
	refOpts := testbedOptions(lexicon)
	refOpts.Cache.Disable = true
	ref := newMetasearcher(refOpts)
	want := map[uint64]map[string]answer{}
	distinct := map[string]map[string]bool{}
	for gen, state := range saved {
		if err := ref.Load(bytes.NewReader(state)); err != nil {
			t.Fatal(err)
		}
		want[gen] = map[string]answer{}
		for _, q := range queries {
			resp, err := ref.SearchExplained(context.Background(), q, 3, 5)
			if err != nil {
				t.Fatalf("reference %q at generation %d: %v", q, gen, err)
			}
			want[gen][q] = answer{resp.Selections, resp.Results}
			if distinct[q] == nil {
				distinct[q] = map[string]bool{}
			}
			distinct[q][fmt.Sprint(resp.Selections)] = true
		}
	}
	changed := 0
	for _, sels := range distinct {
		if len(sels) > 1 {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("every rebuild selects identically; the test could not see a mixed answer")
	}

	gens := map[uint64]bool{}
	for g := 0; g < readers; g++ {
		if failed[g] != nil {
			t.Errorf("reader %d: %v", g, failed[g])
		}
		for k, got := range seen[g] {
			gens[k.gen] = true
			w, ok := want[k.gen]
			if !ok {
				t.Errorf("reader %d: answer from generation %d, which no rebuild published", g, k.gen)
				continue
			}
			if !reflect.DeepEqual(got, w[k.q]) {
				t.Errorf("reader %d: %q at generation %d differs from that state's uncached answer:\n got %+v\nwant %+v",
					g, k.q, k.gen, got.sels, w[k.q].sels)
			}
		}
	}
	if len(gens) < 2 {
		t.Errorf("queries saw %d generation(s); the rebuilds did not overlap the load", len(gens))
	}
}

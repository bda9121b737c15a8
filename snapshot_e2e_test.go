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

package loadgen

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// TestGenerateGolden pins Generate's output bit for bit on the schedule
// shapes servebench draws: one Poisson phase over a single name (whose
// ranks the caller then renumbers consecutively) and a Zipf mix over a
// 4,000-query pool. Each case pins the event count, the first three
// events exactly, and an FNV-64a hash over every event's arrival bits
// and query rank. A change to the arrival or rank stream fails here.
func TestGenerateGolden(t *testing.T) {
	pool := make([]string, 4000)
	for i := range pool {
		pool[i] = fmt.Sprintf("q%d", i)
	}
	for _, c := range []struct {
		name    string
		spec    Spec
		queries []string
		n       int
		first   string
		hash    uint64
	}{
		{
			name:    "poisson-1-name",
			spec:    Spec{Phases: []Phase{{QPS: 24, DurationSeconds: 87.5}}, Seed: 1},
			queries: pool[:1],
			n:       2145,
			first:   "3f990edcd662c908:0 3fb3654fdf31dcc4:0 3fb3dee07621785b:0 ",
			hash:    0xd6657bc50995b439,
		},
		{
			name:    "zipf-seed-1",
			spec:    Spec{Phases: []Phase{{QPS: 100, DurationSeconds: 21}}, Seed: 1},
			queries: pool,
			n:       2145,
			first:   "3f780e44a4d9b6c0:1771 3f929eb313b4fce5:10 3f931366d7ce361a:99 ",
			hash:    0xc816afc29287a8e1,
		},
		{
			name:    "zipf-seed-7",
			spec:    Spec{Phases: []Phase{{QPS: 100, DurationSeconds: 21}}, Seed: 7},
			queries: pool,
			n:       2070,
			first:   "3f811212b4f1112d:1 3f8726158d22c078:1219 3f98579f4207625a:0 ",
			hash:    0x7abf4a6b5a4c398d,
		},
	} {
		tr, err := Generate(c.spec, c.queries)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := fnv.New64a()
		var buf [16]byte
		for _, ev := range tr.Events {
			binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(ev.At))
			binary.LittleEndian.PutUint64(buf[8:], uint64(ev.Query))
			h.Write(buf[:])
		}
		first := ""
		for _, ev := range tr.Events[:3] {
			first += fmt.Sprintf("%x:%d ", math.Float64bits(ev.At), ev.Query)
		}
		if len(tr.Events) != c.n || first != c.first || h.Sum64() != c.hash {
			t.Errorf("%s: got n=%d first=%q hash=%#x, want n=%d first=%q hash=%#x",
				c.name, len(tr.Events), first, h.Sum64(), c.n, c.first, c.hash)
		}
	}
}

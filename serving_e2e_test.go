package repro_test

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	repro "repro"
	"repro/internal/gateway"
	"repro/internal/loadgen"
	"repro/internal/slo"
)

// topicDocs builds deterministic topical documents (the example_test
// pattern; this file is in package repro_test because gateway imports
// repro, so the in-package helpers are out of reach).
func topicDocs(rng *rand.Rand, parts []string, n int) []string {
	docs := make([]string, n)
	for i := range docs {
		var sb strings.Builder
		for j := 0; j < 4; j++ {
			sb.WriteString(parts[rng.Intn(len(parts))])
			sb.WriteString(". ")
		}
		docs[i] = sb.String()
	}
	return docs
}

// buildServingStack assembles a small metasearcher with an HTTP gateway
// and an SLO tracker, returning the pieces the serving tests drive.
func buildServingStack(t *testing.T) (*repro.Metasearcher, *slo.Tracker, *httptest.Server) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	heart := []string{
		"blood pressure and hypertension management",
		"coronary artery disease treatment",
		"cardiac valve surgery outcomes",
	}
	soccer := []string{
		"the striker scored a late goal",
		"penalty decisions by the referee",
		"league championship standings",
	}
	m := repro.New(repro.Options{SampleSize: 30, Seed: 3})
	if err := m.Train("Heart", topicDocs(rng, heart, 20)); err != nil {
		t.Fatal(err)
	}
	if err := m.Train("Soccer", topicDocs(rng, soccer, 20)); err != nil {
		t.Fatal(err)
	}
	if err := m.AddDatabase(m.NewLocalDatabase("cardio.example", topicDocs(rng, heart, 80)), "Heart"); err != nil {
		t.Fatal(err)
	}
	if err := m.AddDatabase(m.NewLocalDatabase("futbol.example", topicDocs(rng, soccer, 80)), ""); err != nil {
		t.Fatal(err)
	}
	if err := m.BuildSummaries(); err != nil {
		t.Fatal(err)
	}

	tracker := slo.New(slo.Config{
		Objectives: slo.DefaultObjectives(500 * time.Millisecond),
		Registry:   m.Metrics(),
	})
	gw := gateway.New(m, gateway.Options{
		DefaultMaxDBs: 2,
		DefaultPerDB:  3,
		Metrics:       m.Metrics(),
		SLO:           tracker,
	})
	mux := http.NewServeMux()
	mux.Handle(gateway.PathSearch, gw)
	mux.Handle(gateway.PathHealthz, gw)
	mux.Handle("/debug/slo", tracker.Handler())
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return m, tracker, srv
}

// TestServingLoadE2E drives the full serving path — a loadgen
// schedule's requests through the HTTP gateway, caches, selection and
// fan-out — and checks that the gateway's request accounting, the
// cache and stage metrics, and the /debug/slo report all describe the
// requests the test issued.
func TestServingLoadE2E(t *testing.T) {
	m, _, srv := buildServingStack(t)

	queries := []string{
		"blood pressure",
		"coronary artery disease",
		"late goal",
		"penalty referee",
		"league standings",
	}
	tr, err := loadgen.Generate(loadgen.Spec{
		Phases: []loadgen.Phase{{QPS: 60, DurationSeconds: 1.5}},
		Seed:   5,
	}, queries)
	if err != nil {
		t.Fatal(err)
	}

	client := srv.Client()
	for _, ev := range tr.Events {
		v := url.Values{"q": {tr.Queries[ev.Query]}, "k": {"2"}, "perdb": {"3"}}
		resp, err := client.Get(srv.URL + gateway.PathSearch + "?" + v.Encode())
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		// 429 is a shed, anything else but 200 an error: a clean run
		// has neither.
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %q: %s", tr.Queries[ev.Query], resp.Status)
		}
	}
	issued := int64(len(tr.Events))

	snap := m.Metrics().Snapshot()
	if got := snap.Counters["gateway_shed_total"] + snap.Counters["gateway_errors_total"]; got != 0 {
		t.Fatalf("clean run expected: gateway counted %d sheds and errors", got)
	}
	// Five queries under a Zipf law repeat heavily: the cache must show.
	if snap.Counters["result_cache_hits_total"] == 0 {
		t.Fatal("no result-cache hits under a Zipfian workload")
	}
	if snap.Histograms["search_stage_selection_latency"].Count == 0 {
		t.Fatal("no selection-stage latency recorded")
	}

	// The gateway's own accounting agrees with the requests issued.
	if got := snap.Counters["gateway_requests_total"]; got != issued {
		t.Fatalf("gateway saw %d requests, test issued %d", got, issued)
	}
	if got := snap.Histograms["gateway_latency"].Count; got != issued {
		t.Fatalf("gateway_latency has %d observations, want %d", got, issued)
	}
	if got := snap.Histograms["gateway_error_latency"].Count; got != 0 {
		t.Fatalf("gateway_error_latency has %d observations on a clean run", got)
	}
	if infl := snap.Gauges["gateway_requests_inflight"]; infl != 0 {
		t.Fatalf("inflight gauge %v after drain", infl)
	}

	// /debug/slo reports the same traffic against the objectives, with
	// burn rates computed from the same request stream.
	resp, err := http.Get(srv.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/slo: %s", resp.Status)
	}
	var sloRep slo.Report
	if err := json.NewDecoder(resp.Body).Decode(&sloRep); err != nil {
		t.Fatal(err)
	}
	byName := map[string]slo.ObjectiveReport{}
	for _, o := range sloRep.Objectives {
		byName[o.Name] = o
	}
	for _, name := range []string{"latency", "availability"} {
		o, ok := byName[name]
		if !ok {
			t.Fatalf("objective %q missing from /debug/slo", name)
		}
		if len(o.Windows) == 0 {
			t.Fatalf("objective %q has no windows", name)
		}
		if o.TotalSinceStart != issued {
			t.Fatalf("objective %q judged %d requests, gateway served %d", name, o.TotalSinceStart, issued)
		}
		// All requests were local and fast: no budget burned, and the
		// one-minute window must have seen the whole run.
		if o.Windows[0].Total != issued {
			t.Fatalf("objective %q window %s saw %d of %d requests",
				name, o.Windows[0].Window, o.Windows[0].Total, issued)
		}
		if o.Windows[0].BurnRate != 0 || o.Windows[0].BudgetRemaining != 1 {
			t.Fatalf("objective %q burning budget on a clean run: %+v", name, o.Windows[0])
		}
	}
	if sloRep.Latency == nil || sloRep.Latency.Count != issued {
		t.Fatalf("slo latency quantiles missing or wrong count: %+v", sloRep.Latency)
	}
}

// TestServingSLOSeesFailures injects failures through the gateway (bad
// deadline → 504s) and checks the burn rate moves.
func TestServingSLOSeesFailures(t *testing.T) {
	_, tracker, srv := buildServingStack(t)

	// A deadline too short for a cold query forces timeouts.
	for i := 0; i < 4; i++ {
		resp, err := http.Get(srv.URL + gateway.PathSearch + "?q=blood+pressure+" + string(rune('a'+i)) + "&timeout=1ns")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatal("1ns deadline produced a 200")
		}
	}
	resp, err := http.Get(srv.URL + gateway.PathSearch + "?q=blood+pressure")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	rep := tracker.Report()
	var avail *slo.ObjectiveReport
	for i := range rep.Objectives {
		if rep.Objectives[i].Name == "availability" {
			avail = &rep.Objectives[i]
		}
	}
	if avail == nil {
		t.Fatal("availability objective missing")
	}
	if avail.BadSinceStart < 4 {
		t.Fatalf("availability saw %d bad requests, want >= 4", avail.BadSinceStart)
	}
	if avail.Windows[0].BurnRate <= 1 {
		t.Fatalf("burn rate %v after 4/5 requests failed", avail.Windows[0].BurnRate)
	}
}

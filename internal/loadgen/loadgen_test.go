package loadgen

import (
	"reflect"
	"testing"
)

var testQueries = []string{"heart attack", "world cup", "gene therapy", "stock market", "deep sea"}

func testSpec(seed int64) Spec {
	return Spec{
		Phases: []Phase{{QPS: 200, DurationSeconds: 2}, {QPS: 50, DurationSeconds: 1}},
		Seed:   seed,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(testSpec(42), testQueries)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(testSpec(42), testQueries)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and spec produced different traces")
	}
	c, err := Generate(testSpec(43), testQueries)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestGenerateSchedule(t *testing.T) {
	tr, err := Generate(testSpec(1), testQueries)
	if err != nil {
		t.Fatal(err)
	}
	const dur = 3.0
	prev := 0.0
	for i, ev := range tr.Events {
		if ev.At < prev {
			t.Fatalf("event %d at %v before previous %v: schedule not monotone", i, ev.At, prev)
		}
		if ev.At < 0 || ev.At >= dur {
			t.Fatalf("event %d at %v outside [0, %v)", i, ev.At, dur)
		}
		if ev.Query < 0 || ev.Query >= len(testQueries) {
			t.Fatalf("event %d references query %d", i, ev.Query)
		}
		prev = ev.At
	}
	// ~200*2 + 50*1 = 450 expected arrivals; Poisson noise stays well
	// within ±40% at this volume.
	if n := len(tr.Events); n < 270 || n > 630 {
		t.Fatalf("got %d events, expected around 450", n)
	}
}

func TestGenerateZipfHeadSkew(t *testing.T) {
	tr, err := Generate(Spec{
		Phases: []Phase{{QPS: 2000, DurationSeconds: 2}},
		Seed:   9,
	}, testQueries)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(testQueries))
	for _, ev := range tr.Events {
		counts[ev.Query]++
	}
	if counts[0] <= counts[len(counts)-1] {
		t.Fatalf("rank 0 drawn %d times, last rank %d: no Zipf head skew", counts[0], counts[len(counts)-1])
	}
	if frac := float64(counts[0]) / float64(len(tr.Events)); frac < 0.35 {
		t.Fatalf("hottest query got %.0f%% of traffic, expected a dominant head", frac*100)
	}
}

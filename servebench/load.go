package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/evtstream"
	"repro/internal/gateway"
	"repro/internal/loadgen"
	"repro/internal/telemetry"
)

// requestTimeout bounds one request; a request that outlives it counts
// as failed.
const requestTimeout = 10 * time.Second

// sample is one request's outcome.
type sample struct {
	query     int // index into the workload's query pool
	traced    bool
	streamed  bool
	traceID   string
	scheduled time.Time // when the schedule said to send it
	sent      time.Time // when the client started the request
	first     time.Time // first stream frame (streamed requests only)
	end       time.Time // last byte of the complete answer
	ok        bool
	err       string
	frames    int
	reply     *gateway.SearchReply
}

func (s *sample) latencyMS() float64 { return ms(s.end.Sub(s.scheduled)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// client issues search requests over a transport capped at conns
// connections, so the harness never holds more sockets than it has
// request slots.
type client struct {
	hc       *http.Client
	base     string
	inflight atomic.Int64
	maxSeen  atomic.Int64
	traceN   atomic.Uint64
}

func newClient(base string, conns int) *client {
	return &client{
		base: base,
		hc: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do runs one request and fills s. A traced request carries a fresh
// X-Trace-Id, which the gateway hands to the Searcher's context.
func (c *client) do(s *sample, text string) {
	n := c.inflight.Add(1)
	defer c.inflight.Add(-1)
	for {
		m := c.maxSeen.Load()
		if n <= m || c.maxSeen.CompareAndSwap(m, n) {
			break
		}
	}
	path := gateway.PathSearch
	v := url.Values{"q": {text}, "k": {strconv.Itoa(maxDBs)}, "perdb": {strconv.Itoa(perDB)}}
	if s.streamed {
		path = gateway.PathSearchStream
		v.Set("format", "ndjson")
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path+"?"+v.Encode(), nil)
	if err != nil {
		s.err = err.Error()
		return
	}
	if s.traced {
		s.traceID = fmt.Sprintf("%016x", 0xbe00000000000000|c.traceN.Add(1))
		telemetry.Inject(telemetry.SpanContext{TraceID: s.traceID, SpanID: 1}, req.Header)
	}
	s.sent = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		s.end = time.Now()
		s.err = err.Error()
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		s.end = time.Now()
		s.err = fmt.Sprintf("HTTP %d", resp.StatusCode)
		return
	}
	if s.streamed {
		c.readStream(s, resp.Body)
		return
	}
	body, err := io.ReadAll(resp.Body)
	s.end = time.Now()
	if err != nil {
		s.err = err.Error()
		return
	}
	var reply gateway.SearchReply
	if err := json.Unmarshal(body, &reply); err != nil {
		s.err = "decoding reply: " + err.Error()
		return
	}
	s.reply, s.ok = &reply, true
}

// readStream consumes an NDJSON event stream up to its terminal frame.
func (c *client) readStream(s *sample, body io.Reader) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var f evtstream.Frame
		if err := json.Unmarshal(line, &f); err != nil {
			s.end = time.Now()
			s.err = "decoding frame: " + err.Error()
			return
		}
		if f.Type == evtstream.TypeHeartbeat {
			continue
		}
		s.frames++
		if s.first.IsZero() {
			s.first = time.Now()
		}
		switch f.Type {
		case evtstream.TypeFinal:
			s.end = time.Now()
			var reply gateway.SearchReply
			if err := json.Unmarshal(f.Data, &reply); err != nil {
				s.err = "decoding final frame: " + err.Error()
				return
			}
			s.reply, s.ok = &reply, true
			return
		case evtstream.TypeError:
			s.end = time.Now()
			s.err = "stream error frame: " + string(f.Data)
			return
		}
	}
	s.end = time.Now()
	s.err = "stream ended without a final frame"
	if err := sc.Err(); err != nil {
		s.err = err.Error()
	}
}

// arrivals are the open-loop send offsets: Poisson at qps for the given
// length, or until atLeast arrivals when the length holds fewer, from
// loadgen's seeded schedule generator. With zipfPool > 0 each arrival
// also names a query rank drawn from a Zipf law (s = 1.1, the loadgen
// default) over zipfPool queries; otherwise the ranks are consecutive,
// so every request is a distinct query.
func arrivals(qps float64, length time.Duration, seed int64, zipfPool, atLeast int) ([]loadgen.Event, error) {
	pool := zipfPool
	if pool == 0 {
		pool = 1
	}
	names := make([]string, pool)
	// A longer schedule from the same seed extends this one, so cutting
	// it keeps the arrivals of the first length unchanged.
	long := 2 * math.Max(length.Seconds(), float64(atLeast)/qps)
	tr, err := loadgen.Generate(loadgen.Spec{
		Phases: []loadgen.Phase{{QPS: qps, DurationSeconds: long}},
		Seed:   seed,
	}, names)
	if err != nil {
		return nil, err
	}
	n := 0
	for n < len(tr.Events) && (tr.Events[n].At < length.Seconds() || n < atLeast) {
		n++
	}
	tr.Events = tr.Events[:n]
	if zipfPool == 0 {
		for i := range tr.Events {
			tr.Events[i].Query = i
		}
	}
	return tr.Events, nil
}

// openLoop sends one request per event at its scheduled instant from
// `slots` workers: a request waits for a free slot when all are busy,
// and its latency still counts from the schedule. late collects how far
// past its due time the generator woke for each request it did not
// have to hold back.
func openLoop(c *client, events []loadgen.Event, texts func(int) string, slots int, prep func(i int, s *sample)) (samples []*sample, late []float64) {
	samples = make([]*sample, len(events))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < slots; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				c.do(samples[i], texts(samples[i].query))
			}
		}()
	}
	start := time.Now().Add(20 * time.Millisecond)
	for i, ev := range events {
		due := start.Add(time.Duration(ev.At * float64(time.Second)))
		s := &sample{query: ev.Query, scheduled: due}
		if prep != nil {
			prep(i, s)
		}
		samples[i] = s
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
			late = append(late, ms(time.Since(due)))
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return samples, late
}

// closedLoop runs `slots` clients back to back for length, each sending
// its next request as soon as the previous one completes. next hands
// out query indices, -1 when the pool is spent. It returns every sample
// and the phase's wall time.
func closedLoop(c *client, length time.Duration, slots int, next func() int, texts func(int) string) ([]*sample, time.Duration) {
	start := time.Now()
	stop := start.Add(length)
	var mu sync.Mutex
	var all []*sample
	var wg sync.WaitGroup
	for w := 0; w < slots; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []*sample
			for time.Now().Before(stop) {
				q := next()
				if q < 0 {
					break
				}
				s := &sample{query: q, scheduled: time.Now()}
				c.do(s, texts(s.query))
				mine = append(mine, s)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all, time.Since(start)
}

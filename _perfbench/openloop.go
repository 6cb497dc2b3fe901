package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request of an open-loop run.
type sample struct {
	req  request
	rung int // ladder rung, from 1; 0 outside the ladder
	// due is when the schedule sends the request; ready is when a
	// punctual sender would have sent it, max(due, the moment its
	// connection would have been free); sent and done bracket the HTTP
	// exchange.
	due, ready, sent, done time.Time
	status                 int
	err                    error
	body                   []byte
	// backlog is how many later requests were already due when this
	// one could be sent.
	backlog int
}

// latency is the request's time from due to response minus the
// generator's wake-up lateness, in ms.
func (s *sample) latency() float64 { return ms(s.done.Sub(s.due) - s.lateness()) }

// lateness is how long after it could have sent the request the sender
// actually did.
func (s *sample) lateness() time.Duration { return s.sent.Sub(s.ready) }

// schedule draws a rung's arrival offsets: count arrivals placed
// uniformly at random over the rung's duration, which is a Poisson
// arrival process conditioned on its count.
func schedule(rng *rand.Rand, s step) []time.Duration {
	due := make([]time.Duration, s.count)
	span := s.seconds * float64(time.Second)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * span)
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// openLoop sends reqs[i] at start+due[i] regardless of how earlier
// requests fare, over at most workers connections. A request is timed
// from when it was due, so a stalled connection charges its wait to
// every request queued behind it. The sender's own wake-up delay is
// not the server's: each connection keeps the time it would have been
// free had every send been punctual (its previous request's ready time
// plus that request's service time, done - sent), and a request's
// ready time is max(due, that time). Its lateness, sent - ready, is
// reported for the generator and left out of its latency, and does not
// leak into the requests queued behind it. A zero schedule sends as
// fast as the connections allow.
func openLoop(client *http.Client, base string, reqs []request, due []time.Duration, workers int) ([]sample, time.Time) {
	out := make([]sample, len(reqs))
	start := time.Now().Add(2 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var free time.Time // when this connection would have been free
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				s := &out[i]
				s.req = reqs[i]
				s.due = start.Add(due[i])
				s.ready = s.due
				if free.After(s.due) {
					s.ready = free
				}
				time.Sleep(time.Until(s.due))
				s.sent = time.Now()
				s.body, s.status, s.err = post(client, base+reqs[i].path, reqs[i].body)
				s.done = time.Now()
				free = s.ready.Add(s.done.Sub(s.sent))
			}
		}()
	}
	wg.Wait()
	for i := range out {
		s := &out[i]
		later := sort.Search(len(out), func(j int) bool { return out[j].due.After(s.ready) })
		if b := later - (i + 1); b > 0 {
			s.backlog = b
		}
	}
	return out, start
}

func post(client *http.Client, url string, body []byte) ([]byte, int, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// stepResult summarizes one ladder rung.
type stepResult struct {
	rate    float64
	samples []sample
	lat     []float64 // latency of every request, ms
	ok      int
	wall    float64 // seconds from the rung's start to its last response
	p90     float64
	growing bool
	over    bool
}

// analyzeStep judges a rung: it is over its limit when its p90 misses
// the latency limit, any request failed, or its backlog grew (the mean
// backlog over the last quarter of requests exceeds the first
// quarter's by more than two).
func analyzeStep(s step, samples []sample, start time.Time, sloMS float64) stepResult {
	r := stepResult{rate: s.rate, samples: samples}
	last := start
	for _, x := range samples {
		r.lat = append(r.lat, x.latency())
		if x.err == nil && x.status == http.StatusOK {
			r.ok++
		}
		if x.done.After(last) {
			last = x.done
		}
	}
	r.wall = last.Sub(start).Seconds()
	r.p90 = quantile(r.lat, 0.9)
	q := len(samples) / 4
	if q > 0 {
		head, tail := 0, 0
		for i := 0; i < q; i++ {
			head += samples[i].backlog
			tail += samples[len(samples)-1-i].backlog
		}
		r.growing = float64(tail-head)/float64(q) > 2
	}
	r.over = r.p90 > sloMS || r.ok < len(samples) || r.growing
	return r
}

// printLadder prints each rung with its sample counts.
func printLadder(results []stepResult) {
	fmt.Println("# ladder (latency from due time less generator lateness; p90 needs >= 10 samples beyond it)")
	for k, r := range results {
		var late []float64
		backlog := 0
		for _, s := range r.samples {
			late = append(late, ms(s.lateness()))
			if s.backlog > backlog {
				backlog = s.backlog
			}
		}
		fmt.Printf("#   r%d %6.1f/s n=%d ok=%d p50=%.3fms p90=%.3fms (%d beyond) late_p90=%.3fms backlog_max=%d growing=%v over_limit=%v\n",
			k+1, r.rate, len(r.samples), r.ok, median(r.lat), r.p90, beyond(r.lat, 0.9),
			quantile(late, 0.9), backlog, r.growing, r.over)
	}
}

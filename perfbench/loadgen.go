package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"sync"
	"time"
)

// sample is one request the load generator sent and what came back.
type sample struct {
	req    request
	status int
	body   []byte
	header http.Header
	err    error
	// fromDueMS is the latency from when the request was due to be
	// sent (open loop) or from when it was sent (closed loop); sendMS is
	// always from when it was sent; lateMS is how late the generator
	// sent it. A request that failed or was refused reads +Inf in
	// fromDueMS and sendMS, so it misses every latency limit.
	fromDueMS, sendMS, lateMS float64
}

func (s *sample) ok() bool { return s.err == nil && s.status/100 == 2 }

// newClient returns an HTTP client that opens at most conns
// connections to any host.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// send posts one request and records its latencies relative to due.
func send(ctx context.Context, c *http.Client, base string, r request, due time.Time) sample {
	s := sample{req: r}
	start := time.Now()
	s.lateMS = ms(start.Sub(due))
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.path, bytes.NewReader(r.body))
	if err == nil {
		hr.Header.Set("Content-Type", "application/json")
		var resp *http.Response
		if resp, err = c.Do(hr); err == nil {
			s.status, s.header = resp.StatusCode, resp.Header
			s.body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
	}
	end := time.Now()
	s.err = err
	s.fromDueMS, s.sendMS = ms(end.Sub(due)), ms(end.Sub(start))
	if !s.ok() {
		s.fromDueMS, s.sendMS = math.Inf(1), math.Inf(1)
	}
	return s
}

// openLoop sends reqs[i] at start+due[i], independent of how fast
// replies come back, over at most conns concurrent requests (and so
// connections). A request due while every sender is busy waits, and
// that wait counts in its due-time latency.
func openLoop(ctx context.Context, c *http.Client, base string, reqs []request, due []time.Duration, conns int) []sample {
	out := make([]sample, len(reqs))
	var mu sync.Mutex
	next := 0
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(reqs) {
					return
				}
				at := start.Add(due[i])
				select {
				case <-time.After(time.Until(at)):
				case <-ctx.Done():
					return
				}
				out[i] = send(ctx, c, base, reqs[i], at)
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop keeps conns requests in flight for d, each sender posting
// its next request as soon as the previous one returns, and reports
// the samples and the time the phase took. With pause not nil, a sender
// calls it after each reply, and the phase's time leaves out the time
// the pauses took, divided among the senders.
func closedLoop(ctx context.Context, c *http.Client, base string, next func() request, conns int, d time.Duration, pause func() time.Duration) ([]sample, time.Duration) {
	var mu sync.Mutex
	var out []sample
	var paused time.Duration
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d && ctx.Err() == nil {
				mu.Lock()
				r := next()
				mu.Unlock()
				s := send(ctx, c, base, r, time.Now())
				var p time.Duration
				if pause != nil {
					p = pause()
				}
				mu.Lock()
				out = append(out, s)
				paused += p
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start) - paused/time.Duration(conns)
}

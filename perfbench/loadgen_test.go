package main

import (
	"context"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRefusedRequestFailsAndMissesEveryLimit(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	ln.Close() // nothing listens: every connection is refused

	reqs := []request{{path: "/v1/analyze", body: []byte(`{}`)}, {path: "/v1/analyze", body: []byte(`{}`)}}
	due := []time.Duration{0, time.Millisecond}
	c := newClient(serveConns)
	defer c.CloseIdleConnections()
	o := &outcome{}
	st := &serveStats{split: newLayerSplit(), hotSplit: newLayerSplit()}
	for _, smp := range openLoop(context.Background(), c, base, reqs, due, serveConns) {
		smp := smp
		o.jobMS = append(o.jobMS, smp.fromDueMS)
		st.add(o, &smp, nil, map[string]bool{})
	}
	if o.attempted != 2 || o.failed != 2 {
		t.Errorf("attempted %d, failed %d; want both refused requests failed", o.attempted, o.failed)
	}
	if p := percentile(o.jobMS, 0.5); !math.IsInf(p, 1) {
		t.Errorf("median latency of refused requests = %g ms; a refusal must miss every limit", p)
	}
}

func TestOpenLoopTimesFromDueThroughAStall(t *testing.T) {
	const stall = 300 * time.Millisecond
	var first sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		first.Do(func() { time.Sleep(stall) })
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	var reqs []request
	var due []time.Duration
	for i := 0; i < 6; i++ {
		reqs = append(reqs, request{path: "/", body: []byte(`{}`)})
		due = append(due, time.Duration(i)*20*time.Millisecond)
	}
	c := newClient(1)
	defer c.CloseIdleConnections()
	out := openLoop(context.Background(), c, srv.URL, reqs, due, 1)
	stallMS := ms(stall)
	if out[0].fromDueMS < stallMS {
		t.Errorf("stalled request took %.1f ms from due, want >= %.0f", out[0].fromDueMS, stallMS)
	}
	for i := 1; i < len(out); i++ {
		queued := stallMS - ms(due[i])
		if out[i].fromDueMS < queued {
			t.Errorf("request %d queued behind the stall: %.1f ms from due, want >= %.1f", i, out[i].fromDueMS, queued)
		}
		if out[i].lateMS < queued {
			t.Errorf("request %d sent %.1f ms late, want >= %.1f reported", i, out[i].lateMS, queued)
		}
		if out[i].sendMS > out[i].fromDueMS-queued+1 {
			t.Errorf("request %d: latency from send %.1f ms should exclude the queueing", i, out[i].sendMS)
		}
	}
}

func TestConnectionCapHolds(t *testing.T) {
	var open, maxOpen, inflight, maxInflight atomic.Int64
	raise := func(v *atomic.Int64, n int64) {
		for {
			m := v.Load()
			if n <= m || v.CompareAndSwap(m, n) {
				return
			}
		}
	}
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raise(&maxInflight, inflight.Add(1))
		time.Sleep(5 * time.Millisecond)
		inflight.Add(-1)
		w.Write([]byte(`{}`))
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			raise(&maxOpen, open.Add(1))
		case http.StateClosed, http.StateHijacked:
			open.Add(-1)
		}
	}
	srv.Start()
	defer srv.Close()

	const conns = 2
	c := newClient(conns)
	defer c.CloseIdleConnections()
	r := request{path: "/", body: []byte(`{}`)}
	var reqs []request
	var due []time.Duration
	for i := 0; i < 60; i++ { // due far faster than the server answers
		reqs = append(reqs, r)
		due = append(due, time.Duration(i)*time.Millisecond)
	}
	openLoop(context.Background(), c, srv.URL, reqs, due, conns)
	closedLoop(context.Background(), c, srv.URL, func() request { return r }, conns, 100*time.Millisecond, nil)
	if maxOpen.Load() > conns || maxInflight.Load() > conns {
		t.Errorf("saw %d connections and %d requests in flight, cap %d", maxOpen.Load(), maxInflight.Load(), conns)
	}
	if maxInflight.Load() < conns {
		t.Errorf("never had %d requests in flight: the loops did not use the connections they may", conns)
	}
}

func TestClosedLoopLeavesPausesOut(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write([]byte(`{}`)) }))
	defer srv.Close()
	c := newClient(1)
	defer c.CloseIdleConnections()
	r := request{path: "/", body: []byte(`{}`)}
	const d, pauseFor = 300 * time.Millisecond, 20 * time.Millisecond
	var paused time.Duration
	pause := func() time.Duration {
		time.Sleep(pauseFor)
		paused += pauseFor
		return pauseFor
	}
	out, el := closedLoop(context.Background(), c, srv.URL, func() request { return r }, 1, d, pause)
	if len(out) == 0 {
		t.Fatal("no request sent")
	}
	if el <= 0 || el > d+pauseFor-paused {
		t.Errorf("phase time %v with %v of pauses in a %v phase: the pauses were not left out", el, paused, d)
	}
}

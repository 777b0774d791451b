package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
	"repro/internal/trace"
)

// The serve-mix workload runs bwserved in process on loopback with one
// service worker, and loads it over one connection from one sender
// goroutine at a time, on one Go processor (GOMAXPROCS 1). With two
// workers and two connections on a shared 2-core machine, the load
// needed both cores, and the closed-loop capacity swung by a third from
// run to run (128 to 210 requests/s over 13 runs) as other tenants took
// a core. With one of each but two processors, a request still hopped
// between the cores, whose speeds other tenants change separately: the
// median closed-loop latency of one seed spread by 0.18 over four runs,
// and the reference loop, which runs on one core, did not follow it.
// With one processor it spread by 0.13, and the loop follows it.
const (
	serveConns   = 1
	serveWorkers = 1
	// openRate is the open loop's fixed arrival rate, about a ninth of
	// the closed-loop capacity at the commit that defined the benchmark.
	// At a third, waiting behind earlier requests was as long as the
	// service itself and amplified every change in machine speed; the
	// median latency swung by 28% from run to run, and at a sixth it
	// still tripled while other tenants slowed the machine by a third.
	// It stays fixed so later commits are loaded alike.
	openRate = 10.0
	// openShare is the part of a run the open loop takes; the closed
	// loop, which gives the end-to-end latencies and the capacity, takes
	// the rest. The open loop's latencies from due time spread by a
	// quarter between runs of one seed: a tenth of its ~200 requests
	// arrived behind a 40-70 ms optimization, so its tail and even its
	// median hinged on where the arrivals fell. They are reported as
	// per-layer metrics.
	openShare = 0.3
	// exactRounds is how many leading cold rounds of the request stream
	// the exact ratios are taken over, whichever phase sends them.
	exactRounds = 2
	// After every calibEvery-th closed-loop reply, the sender waits
	// calibSettle, so that the server finishes the reply's work, and
	// runs the reference loop; the capacity leaves that time out.
	calibEvery  = 4
	calibSettle = 2 * time.Millisecond
)

// serveStages are the bwserved_stage_seconds stages the per-layer
// split reports, per request.
var serveStages = []string{"parse", "optimize", "measure", "bounds", "mrc", "replay", "request"}

// server is one in-process bwserved instance.
type server struct {
	svc  *service.Server
	http *http.Server
	base string
	done chan error
}

func startServer(cacheEntries int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Config{Workers: serveWorkers, CacheEntries: cacheEntries})
	s := &server{svc: svc, http: &http.Server{Handler: svc.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop drains the server and waits for its serving goroutine to end.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.svc.Close(); err == nil {
		err = cerr
	}
	return err
}

// stageTotals reads the server's per-stage latency sums (seconds) and
// counts from its metrics registry.
func (s *server) stageTotals() (sum, count map[string]float64, err error) {
	var buf bytes.Buffer
	if err := s.svc.Registry().WriteText(&buf); err != nil {
		return nil, nil, err
	}
	sum, count = map[string]float64{}, map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		for suffix, into := range map[string]map[string]float64{"_sum": sum, "_count": count} {
			rest, ok := strings.CutPrefix(line, "bwserved_stage_seconds"+suffix+`{stage="`)
			if !ok {
				continue
			}
			stage, val, ok := strings.Cut(rest, `"} `)
			if !ok {
				continue
			}
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				into[stage] = v
			}
		}
	}
	return sum, count, sc.Err()
}

// serveSetup starts a server and warms it with GET /v1/kernels.
func serveSetup() (*server, error) {
	s, err := startServer(0)
	if err != nil {
		return nil, err
	}
	c := newClient(1)
	defer c.CloseIdleConnections()
	resp, err := c.Get(s.base + "/v1/kernels")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET /v1/kernels: %s", resp.Status)
		}
	}
	if err != nil {
		return nil, errors.Join(err, s.stop())
	}
	return s, nil
}

// warmHot puts the hot keys' results in the server's cache and returns
// each hot key's reply, which every later repeat must match.
func warmHot(s *server, hot []request) (map[string]any, error) {
	c := newClient(1)
	defer c.CloseIdleConnections()
	replies := map[string]any{}
	for _, r := range hot {
		smp := send(context.Background(), c, s.base, r, time.Now())
		if err := smp.check(nil); err != nil {
			return nil, fmt.Errorf("hot key %s: %w", r.body, err)
		}
		replies[r.key] = canonical(smp.body)
	}
	return replies, nil
}

// runServe is the serve-mix workload: an open loop at openRate, then a
// closed loop that measures latency and capacity. A traced run sets
// "trace": true on every request and adds a phase that prices tracing
// itself.
func runServe(o *outcome, seed uint64, d time.Duration, traced bool, traceFile string) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	load := d
	if traced {
		load = d * 3 / 4 // the last quarter prices tracing
	}
	openD := time.Duration(openShare * float64(load))
	closedD := load - openD
	mix := newMixGen(seed)
	due := arrivals(newRand(seed), openRate, openD)
	var reqs []request
	for range due {
		reqs = append(reqs, withTrace(mix.next(), traced))
	}
	srv, err := serveSetup()
	if err != nil {
		return err
	}
	if o.setupOnly {
		return srv.stop()
	}
	hotReplies, err := warmHot(srv, mix.hot)
	if err != nil {
		return errors.Join(err, srv.stop())
	}
	st := &serveStats{traced: traced, split: newLayerSplit(), hotSplit: newLayerSplit()}
	o.serve, o.split = st, st.split
	c := newClient(serveConns)
	defer c.CloseIdleConnections()
	ctx := context.Background()

	sum0, cnt0, err := srv.stageTotals()
	if err != nil {
		return errors.Join(err, srv.stop())
	}
	rt0 := readRuntime()
	open := openLoop(ctx, c, srv.base, reqs, due, serveConns)
	sum1, cnt1, err := srv.stageTotals()
	if err != nil {
		return errors.Join(err, srv.stop())
	}
	replies := 0 // one sender (serveConns), so pause runs on one goroutine
	pause := func() time.Duration {
		if replies++; replies%calibEvery != 0 {
			return 0
		}
		start := time.Now()
		time.Sleep(calibSettle)
		o.speed.sample()
		return time.Since(start)
	}
	closed, el := closedLoop(ctx, c, srv.base, func() request { return withTrace(mix.next(), traced) }, serveConns, closedD, pause)
	o.rt.add(rt0, readRuntime())
	o.rt.jobs = len(open) + len(closed)

	// The exact ratios come from the cold requests of the stream's first
	// exactRounds rounds, which hold every kernel and request kind in
	// equal shares, so that they depend on the seed alone and not on how
	// far the closed loop got. Any of them the run did not reach are sent
	// now, untimed but checked.
	seen := map[string]bool{}
	exact := func(r request) map[string]bool {
		if r.hot || r.round > exactRounds {
			return nil
		}
		return seen
	}
	for i := range open {
		smp := &open[i]
		st.dueMS = append(st.dueMS, smp.fromDueMS)
		st.add(o, smp, hotReplies, exact(smp.req))
		st.late = append(st.late, smp.lateMS)
	}
	var good int
	for i := range closed {
		smp := &closed[i]
		o.jobMS = append(o.jobMS, smp.sendMS)
		if st.add(o, smp, hotReplies, exact(smp.req)) {
			good++
		}
	}
	o.capacityRPS = float64(good) / el.Seconds()
	for mix.round < exactRounds || (mix.round == exactRounds && len(mix.cold) > 0) {
		smp := send(ctx, c, srv.base, withTrace(mix.fresh(), traced), time.Now())
		st.add(o, &smp, nil, seen)
	}
	st.stages(open, sum0, cnt0, sum1, cnt1)
	if traced {
		if o.traceOverhead, err = traceOverhead(mix, d-load); err != nil {
			return errors.Join(err, srv.stop())
		}
		write := func(w io.Writer) error { return writeTrees(w, st.export) }
		if err := writeFile(traceFile, write); err != nil {
			return errors.Join(err, srv.stop())
		}
	}
	return srv.stop()
}

// withTrace sets the request's "trace" field.
func withTrace(r request, on bool) request {
	if !on {
		return r
	}
	var body map[string]any
	if json.Unmarshal(r.body, &body) != nil {
		return r
	}
	body["trace"] = true
	r.body = mustJSON(body)
	return r
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// traceOverhead prices tracing on a server without a result cache: each
// cold request is sent untraced and then traced, back to back, for d.
func traceOverhead(mix *mixGen, d time.Duration) (float64, error) {
	s, err := startServer(-1)
	if err != nil {
		return 0, err
	}
	c := newClient(1)
	defer c.CloseIdleConnections()
	var plain, traced float64
	start := time.Now()
	for time.Since(start) < d {
		r := mix.fresh()
		a := send(context.Background(), c, s.base, r, time.Now())
		b := send(context.Background(), c, s.base, withTrace(r, true), time.Now())
		if a.ok() && b.ok() {
			plain += a.sendMS
			traced += b.sendMS
		}
	}
	return ratioOrZero(traced, plain) - 1, s.stop()
}

// serveStats accumulates the serve-mix per-layer measurements.
type serveStats struct {
	traced                      bool
	split, hotSplit             *layerSplit // all requests; cache hits only
	requests, hits              int
	shed                        int
	hotMS, coldMS, anaMS, optMS []float64
	dueMS, late                 []float64 // open loop: latency from due time, sender lateness
	overheadMS                  float64
	stageMS                     map[string]float64
	export                      [][]*trace.Node // first cold replies' span trees
}

// add checks one sample, counts it, and folds its exact outputs in
// once per distinct key when seen is not nil. It reports whether the
// request succeeded.
func (st *serveStats) add(o *outcome, smp *sample, hotReplies map[string]any, seen map[string]bool) bool {
	o.attempted++
	st.requests++
	if smp.status == http.StatusServiceUnavailable {
		st.shed++
	}
	var want any
	if smp.req.hot {
		want = hotReplies[smp.req.key]
	}
	if err := smp.check(want); err != nil {
		o.fail(fmt.Sprintf("%s %s: %v", smp.req.path, smp.req.body, err))
		return false
	}
	hit := smp.header.Get("X-Cache") == "hit"
	if hit {
		st.hits++
	}
	lat := smp.sendMS // the service's own time, without the open loop's queueing
	if hit {
		st.hotMS = append(st.hotMS, lat)
	} else {
		st.coldMS = append(st.coldMS, lat)
	}
	var tree []*trace.Node
	if smp.req.path == "/v1/optimize" {
		st.optMS = append(st.optMS, lat)
		var r service.OptimizeResponse
		_ = json.Unmarshal(smp.body, &r) // decoded once already by check
		tree = r.Trace
		if seen != nil && !seen[smp.req.key] {
			o.ratios = append(o.ratios, float64(memBytes(r.After))/float64(memBytes(r.Before)))
			o.gaps = append(o.gaps, r.Bounds.Gap)
		}
		if !hit {
			o.counts.accesses += levelAccesses(r.Before) + levelAccesses(r.After)
			o.counts.actions += len(r.Actions)
			o.counts.checkpoints += r.Verification.Checkpoints
			o.counts.skipped += len(r.Verification.Skipped)
			tot := r.Analysis.Total()
			o.counts.analysisRequests += tot.Requests
			o.counts.analysisHits += tot.Hits
		}
	} else {
		st.anaMS = append(st.anaMS, lat)
		var r service.AnalyzeResponse
		_ = json.Unmarshal(smp.body, &r) // decoded once already by check
		tree = r.Trace
		if seen != nil && !seen[smp.req.key] {
			o.gaps = append(o.gaps, r.Bounds.Gap)
		}
		if !hit {
			o.counts.accesses += levelAccesses(r.Balance)
		}
	}
	if seen != nil {
		seen[smp.req.key] = true
	}
	if st.traced {
		// A request's time outside the server's span tree is the
		// client, the connection and net/http: the service layer, as
		// is the handler's own time around the pipeline.
		var server float64
		for _, n := range tree {
			server += n.DurUS / 1000
		}
		splits := []*layerSplit{st.split}
		if hit {
			splits = append(splits, st.hotSplit)
		} else if len(st.export) < exportJobs {
			st.export = append(st.export, tree)
		}
		for _, ls := range splits {
			ls.jobs++
			ls.rootMS += smp.sendMS
			ls.selfMS["service.client+http"] += max(0, smp.sendMS-server)
			ls.addTree(tree, "service.handler")
		}
	}
	return true
}

// check requires a 2xx reply that decodes, carries the blocks its
// request asked for with a sound bound, and, for a repeated key,
// matches the key's first reply on every field that is not a timing.
func (smp *sample) check(want any) error {
	if smp.err != nil {
		return smp.err
	}
	if !smp.ok() {
		return fmt.Errorf("status %d: %s", smp.status, bytes.TrimSpace(smp.body))
	}
	var b *service.BoundsSummary
	if smp.req.path == "/v1/optimize" {
		var r service.OptimizeResponse
		if err := json.Unmarshal(smp.body, &r); err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		if r.Before == nil || r.After == nil || r.Verification == nil || r.Degraded != nil {
			return errors.New("optimize reply lacks its measurements or was degraded")
		}
		b = r.Bounds
	} else {
		var r service.AnalyzeResponse
		if err := json.Unmarshal(smp.body, &r); err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		if r.Balance == nil || r.Degraded != nil {
			return errors.New("analyze reply lacks its balance or was degraded")
		}
		b = r.Bounds
	}
	if b == nil || b.BoundBytes <= 0 || b.BoundBytes > b.MeasuredBytes {
		return fmt.Errorf("bounds block missing or unsound: %+v", b)
	}
	if want != nil && !reflect.DeepEqual(canonical(smp.body), want) {
		return errors.New("repeated request's reply differs from its first reply")
	}
	return nil
}

// timingFields are reply fields that legitimately differ between two
// answers to the same request.
var timingFields = map[string]bool{
	"cached": true, "coalesced": true, "trace": true, "seconds": true, "measure_ns": true,
}

// canonical decodes a reply with its timing fields removed.
func canonical(body []byte) any {
	var v any
	if json.Unmarshal(body, &v) != nil {
		return nil
	}
	var strip func(any)
	strip = func(v any) {
		switch t := v.(type) {
		case map[string]any:
			for k, c := range t {
				if timingFields[k] {
					delete(t, k)
				} else {
					strip(c)
				}
			}
		case []any:
			for _, c := range t {
				strip(c)
			}
		}
	}
	strip(v)
	return v
}

func memBytes(b *service.BalanceSummary) int64 {
	if b == nil || len(b.Channels) == 0 {
		return 0
	}
	return b.Channels[len(b.Channels)-1].Bytes
}

func levelAccesses(b *service.BalanceSummary) int64 {
	if b == nil || len(b.CacheLevels) == 0 {
		return 0
	}
	return b.CacheLevels[0].Reads + b.CacheLevels[0].Writes
}

// stages derives per-request stage times and the service overhead
// (client latency from send minus the server's own request time) over
// the open loop.
func (st *serveStats) stages(open []sample, sum0, cnt0, sum1, cnt1 map[string]float64) {
	st.stageMS = map[string]float64{}
	n := float64(len(open))
	for _, s := range serveStages {
		st.stageMS[s] = ratioOrZero((sum1[s]-sum0[s])*1e3, n)
	}
	var client float64
	var ok int
	for _, smp := range open {
		if smp.ok() {
			client += smp.sendMS
			ok++
		}
	}
	reqs := cnt1["request"] - cnt0["request"]
	st.overheadMS = ratioOrZero(client, float64(ok)) - ratioOrZero((sum1["request"]-sum0["request"])*1e3, reqs)
}

// layerMetrics reports the service layer's metrics; on a workload that
// bypasses the service they read 0.
func (st *serveStats) layerMetrics() map[string]metric {
	m := map[string]metric{}
	if st == nil {
		st = &serveStats{stageMS: map[string]float64{}}
	}
	req := float64(st.requests)
	m["service.hit_ratio"] = metric{ratioOrZero(float64(st.hits), req), "ratio"}
	m["service.shed_ratio"] = metric{ratioOrZero(float64(st.shed), req), "ratio"}
	m["service.overhead_ms"] = metric{st.overheadMS, "ms"}
	for _, s := range serveStages {
		m["service.stage_ms."+s] = metric{st.stageMS[s], "ms"}
	}
	m["service.hot_ms_p50"] = metric{median(st.hotMS), "ms"}
	m["service.cold_ms_p50"] = metric{median(st.coldMS), "ms"}
	m["service.analyze_ms_p50"] = metric{median(st.anaMS), "ms"}
	m["service.optimize_ms_p50"] = metric{median(st.optMS), "ms"}
	m["loadgen.due_ms_p50"] = metric{finite(percentile(st.dueMS, 0.5)), "ms"}
	m["loadgen.due_ms_p90"] = metric{finite(percentile(st.dueMS, 0.9)), "ms"}
	m["loadgen.late_ms_p90"] = metric{percentile(st.late, 0.9), "ms"}
	return m
}

// writeTrees writes reply span trees as Chrome trace events, one thread
// per reply.
func writeTrees(w io.Writer, trees [][]*trace.Node) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var events []event
	var add func(n *trace.Node, tid int)
	add = func(n *trace.Node, tid int) {
		events = append(events, event{n.Name, "X", n.StartUS, n.DurUS, 1, tid, n.Attrs})
		for _, c := range n.Children {
			add(c, tid)
		}
	}
	for i, tree := range trees {
		for _, n := range tree {
			add(n, i+1)
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}

package main

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/balance"
	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/verify"
)

// measured returns real reports of one small kernel, as the jobs see them.
func measured(t *testing.T) (before, after, prof *balance.Report, mrc *balance.MRCResult) {
	t.Helper()
	p := kernels.Fig7Original(1024)
	spec := observerSpecs()[0]
	var err error
	if before, err = balance.MeasureWithBounds(context.Background(), p, spec, exec.Limits{}); err != nil {
		t.Fatal(err)
	}
	if after, err = balance.MeasureWithBounds(context.Background(), p, spec, exec.Limits{}); err != nil {
		t.Fatal(err)
	}
	if prof, err = balance.MeasureProfiled(context.Background(), p, spec, exec.Limits{}); err != nil {
		t.Fatal(err)
	}
	m, err := balance.MeasureMRC(context.Background(), p, spec, exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	return before, after, prof, m.MRC
}

func TestChecksPassOnRealOutputs(t *testing.T) {
	before, after, prof, mrc := measured(t)
	if err := checkOptimized(before, after); err != nil {
		t.Errorf("optimize checks: %v", err)
	}
	if err := checkObserved(prof, mrc); err != nil {
		t.Errorf("observer checks: %v", err)
	}
	if err := checkReplay(sim.Stats{ReadMisses: 10}, sim.Stats{ReadMisses: 7}); err != nil {
		t.Errorf("replay check: %v", err)
	}
}

func TestChecksCatchCorruptedOutputs(t *testing.T) {
	corruptions := map[string]func(before, after, prof *balance.Report, mrc *balance.MRCResult) error{
		"optimized print off by more than the tolerance": func(b, a, _ *balance.Report, _ *balance.MRCResult) error {
			a.Result.Prints[0] *= 1 + 1e-6
			return checkOptimized(b, a)
		},
		"optimized program prints one value less": func(b, a, _ *balance.Report, _ *balance.MRCResult) error {
			a.Result.Prints = a.Result.Prints[:len(a.Result.Prints)-1]
			return checkOptimized(b, a)
		},
		"optimized program leaving a scalar changed": func(b, a, _ *balance.Report, _ *balance.MRCResult) error {
			for name := range a.Result.Scalars {
				a.Result.Scalars[name] += 1
			}
			return checkOptimized(b, a)
		},
		"lower bound above the measured traffic": func(b, a, _ *balance.Report, _ *balance.MRCResult) error {
			a.Bound.Best.Bytes = a.MemoryBytes + 1
			return checkOptimized(b, a)
		},
		"array traffic not summing to the total": func(_, _, p *balance.Report, m *balance.MRCResult) error {
			p.Attribution.Arrays[0].MemoryBytes++
			return checkObserved(p, m)
		},
		"site traffic not summing to a level's total": func(_, _, p *balance.Report, m *balance.MRCResult) error {
			p.LevelStats[0].BytesIn += 8
			return checkObserved(p, m)
		},
		"MRC disagreeing with the fixed simulation": func(_, _, p *balance.Report, m *balance.MRCResult) error {
			lv := m.MemLevel()
			for i := range lv.Points {
				lv.Points[i].TrafficBytes++
			}
			return checkObserved(p, m)
		},
	}
	for name, corrupt := range corruptions {
		before, after, prof, mrc := measured(t)
		if err := corrupt(before, after, prof, mrc); err == nil {
			t.Errorf("%s: not caught", name)
		}
	}
	if err := checkReplay(sim.Stats{ReadMisses: 7}, sim.Stats{ReadMisses: 10}); err == nil {
		t.Error("Belady missing more often than LRU: not caught")
	}
}

// TestFailedChecksCount runs a workload whose every job fails its check
// and requires each to count as failed.
func TestFailedChecksCount(t *testing.T) {
	w := cliWorkload{
		draw: func(seed uint64) []input { return drawKernels(newRand(seed), observerFamilies, 1) },
		job: func(ctx context.Context, in input) (jobResult, error) {
			r := &exec.Result{Prints: []float64{1}}
			return jobResult{}, verify.CompareResults(r, &exec.Result{Prints: []float64{2}}, verify.DefaultTol)
		},
	}
	o := &outcome{}
	if err := w.run(o, 1, 50*time.Millisecond, false, ""); err != nil {
		t.Fatal(err)
	}
	if o.attempted == 0 || o.failed != o.attempted {
		t.Errorf("attempted %d, failed %d: every corrupted job must count as failed", o.attempted, o.failed)
	}
}

// TestRatiosCoverTheWholePool requires a run too short to reach every
// input to take its exact ratios over the whole pool all the same.
func TestRatiosCoverTheWholePool(t *testing.T) {
	w := cliWorkload{
		draw: func(seed uint64) []input { return drawKernels(newRand(seed), observerFamilies, 2) },
		job: func(ctx context.Context, in input) (jobResult, error) {
			time.Sleep(time.Millisecond)
			return jobResult{ratio: 0.5, gaps: []float64{2}}, nil
		},
	}
	o := &outcome{}
	if err := w.run(o, 1, 3*time.Millisecond, false, ""); err != nil {
		t.Fatal(err)
	}
	pool := 2 * len(observerFamilies)
	if len(o.jobMS) >= pool {
		t.Fatalf("the timed phase reached all %d inputs; the test needs a shorter run", pool)
	}
	if len(o.ratios) != pool || len(o.gaps) != pool {
		t.Errorf("%d ratios and %d gaps over a pool of %d", len(o.ratios), len(o.gaps), pool)
	}
}

func TestServeReplyChecks(t *testing.T) {
	const ok = `{"balance": {"program": "p"}, "bounds": {"bound_bytes": 8, "measured_bytes": 16}, "cached": false}`
	analyze := func(status int, body string) *sample {
		return &sample{req: request{path: "/v1/analyze"}, status: status, body: []byte(body), header: http.Header{}}
	}
	if err := analyze(200, ok).check(nil); err != nil {
		t.Fatalf("good reply rejected: %v", err)
	}
	want := canonical([]byte(ok))
	repeat := strings.Replace(ok, `"cached": false`, `"cached": true, "trace": [{"name": "x"}]`, 1)
	if err := analyze(200, repeat).check(want); err != nil {
		t.Errorf("a repeat differing only in timing fields was rejected: %v", err)
	}
	for name, smp := range map[string]*sample{
		"503 refusal":                analyze(503, `{"error": "overloaded"}`),
		"reply that does not decode": analyze(200, `{"balance": `),
		"missing balance":            analyze(200, `{"bounds": {"bound_bytes": 8, "measured_bytes": 16}}`),
		"bound above measured":       analyze(200, strings.Replace(ok, `"bound_bytes": 8`, `"bound_bytes": 32`, 1)),
		"degraded reply":             analyze(200, strings.Replace(ok, `"cached": false`, `"degraded": {"level": "x"}`, 1)),
	} {
		if err := smp.check(nil); err == nil {
			t.Errorf("%s: not caught", name)
		}
	}
	changed := strings.Replace(ok, `"program": "p"`, `"program": "q"`, 1)
	if err := analyze(200, changed).check(want); err == nil {
		t.Error("a repeat whose reply changed: not caught")
	}
}

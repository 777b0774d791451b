package service

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/machine"
	"repro/internal/trace"
)

// execRuns counts the exec.run spans of a response's trace that are not
// verification runs (under transform.baseline or verify.differential).
func execRuns(nodes []*trace.Node) int {
	var n int
	var walk func(nodes []*trace.Node, inVerify bool)
	walk = func(nodes []*trace.Node, inVerify bool) {
		for _, nd := range nodes {
			if nd.Name == "exec.run" && !inVerify {
				n++
			}
			walk(nd.Children, inVerify || nd.Name == "transform.baseline" || nd.Name == "verify.differential")
		}
	}
	walk(nodes, false)
	return n
}

// TestOneExecutionPerMeasurement pins the run-once contract from the
// outside: every analyze request, whatever observers and machines it
// asks for, executes the program exactly once; an optimize executes
// the original and the optimized program once each, plus one profiled
// run per committed pass for the pass deltas.
func TestOneExecutionPerMeasurement(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	var all []string
	for _, e := range machine.Entries() {
		all = append(all, e.Spec.Name)
	}
	analyze := []map[string]any{
		{},
		{"profile": true},
		{"mrc": true},
		{"belady": true},
		{"profile": true, "mrc": true, "belady": true},
		{"machines": all},
		{"machines": all, "profile": true, "mrc": true, "belady": true},
	}
	for i, extra := range analyze {
		body := map[string]any{"kernel": "fig7", "n": 1024 + i, "trace": true}
		for k, v := range extra {
			body[k] = v
		}
		resp, raw := postJSON(t, ts.URL+"/v1/analyze", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze %v: status %d: %s", extra, resp.StatusCode, raw)
		}
		var ar AnalyzeResponse
		if err := json.Unmarshal(raw, &ar); err != nil {
			t.Fatal(err)
		}
		if got := execRuns(ar.Trace); got != 1 {
			t.Errorf("analyze %v: %d program executions, want 1", extra, got)
		}
	}

	resp, raw := postJSON(t, ts.URL+"/v1/optimize", map[string]any{
		"kernel": "fig7", "n": 1024, "verify": "differential", "trace": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize: status %d: %s", resp.StatusCode, raw)
	}
	var or OptimizeResponse
	if err := json.Unmarshal(raw, &or); err != nil {
		t.Fatal(err)
	}
	if got := execRuns(or.Trace); got != 2 {
		t.Errorf("optimize: %d non-verification executions, want 2 (original, optimized)", got)
	}

	resp, raw = postJSON(t, ts.URL+"/v1/optimize", map[string]any{
		"kernel": "fig7", "n": 1024, "profile": true, "mrc": true, "trace": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profiled optimize: status %d: %s", resp.StatusCode, raw)
	}
	or = OptimizeResponse{}
	if err := json.Unmarshal(raw, &or); err != nil {
		t.Fatal(err)
	}
	if len(or.PassDeltas) == 0 || or.Profile == nil || or.MRCBefore == nil || or.MRCAfter == nil {
		t.Fatalf("profiled optimize missing observers: deltas %d, profile %v, mrc %v/%v",
			len(or.PassDeltas), or.Profile != nil, or.MRCBefore != nil, or.MRCAfter != nil)
	}
	if got, want := execRuns(or.Trace), 2+len(or.PassDeltas); got != want {
		t.Errorf("profiled optimize: %d executions, want %d (2 + one per committed pass)", got, want)
	}
}

// TestAnalyzeFanoutShapeNotAliased: {"machine": X} and {"machines":
// [X]} measure the same plan but answer in different shapes, so neither
// may be served the other's cached response, in either order.
func TestAnalyzeFanoutShapeNotAliased(t *testing.T) {
	single := map[string]any{"kernel": "fig7", "n": 2048, "machine": "Origin2000"}
	fanout := map[string]any{"kernel": "fig7", "n": 2048, "machines": []string{"Origin2000"}}
	for _, order := range [][]map[string]any{{single, fanout}, {fanout, single}} {
		_, ts := newTestServer(t, Config{Workers: 2})
		for _, body := range order {
			resp, raw := postJSON(t, ts.URL+"/v1/analyze", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%v: status %d: %s", body, resp.StatusCode, raw)
			}
			var ar AnalyzeResponse
			if err := json.Unmarshal(raw, &ar); err != nil {
				t.Fatal(err)
			}
			_, isFanout := body["machines"]
			if isFanout && len(ar.Machines) != 1 {
				t.Errorf("%v (X-Cache %s): %d machines entries, want 1", body, resp.Header.Get("X-Cache"), len(ar.Machines))
			}
			if !isFanout && ar.Machines != nil {
				t.Errorf("%v (X-Cache %s): single-machine request answered with a machines array", body, resp.Header.Get("X-Cache"))
			}
		}
	}
}

package main

import (
	"context"
	"math"
	"testing"

	"repro/internal/trace"
	"repro/internal/verify"
)

// TestLayersSumToRoot traces one real job of each CLI kind and requires
// its layer self times to add up to the job's root span.
func TestLayersSumToRoot(t *testing.T) {
	in := drawKernels(newRand(1), observerFamilies, 1)[0]
	for name, job := range map[string]jobFunc{
		"optimize-verified":   optimizeJob(verify.ModeDifferential),
		"optimize-structural": optimizeJob(verify.ModeStructural),
		"analyze":             analyzeJob(),
	} {
		tr := trace.New()
		root := tr.Start(nil, rootSpan)
		if _, err := job(trace.NewContext(context.Background(), root), in); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		root.End()
		ls := newLayerSplit()
		ls.addJob(tr.Tree()[0])
		var sum float64
		for layer, ms := range ls.selfMS {
			if len(layer) > 6 && layer[:6] == "other:" {
				t.Errorf("%s: span left unclassified: %s", name, layer)
			}
			sum += ms
		}
		if math.Abs(sum-ls.rootMS) > 1e-6*ls.rootMS {
			t.Errorf("%s: layers sum to %.6f ms, root span %.6f ms", name, sum, ls.rootMS)
		}
		if ls.selfMS["unattributed"] > 0.05*ls.rootMS {
			t.Errorf("%s: %.1f%% of the job is outside every layer", name, 100*ls.selfMS["unattributed"]/ls.rootMS)
		}
	}
}

func TestSelfTimesGiveEachInstantToTheInnermostSpan(t *testing.T) {
	got := selfTimes([]span{
		{0, 100, "root"},
		{10, 40, "pass"},
		{20, 30, "analysis"}, // inside the pass in time, though a sibling in the tree
		{50, 60, "exec"},
		{55, 70, "late"},  // outlives exec: clipped to it
		{90, 120, "tail"}, // outlives the root: clipped to it
	})
	want := map[string]float64{"root": 50, "pass": 20, "analysis": 10, "exec": 5, "late": 5, "tail": 10}
	for layer, us := range want {
		if got[layer] != us {
			t.Errorf("%s: %g µs, want %g (all: %v)", layer, got[layer], us, got)
		}
	}
}

package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/trace"
)

// The traced run splits each job's time into layers. The program
// already emits spans for its passes, analyses, verification,
// measurement and execution; the benchmark adds one span per public
// call it makes (named "call <pkg>.<Func>") and a "check" span for its
// own correctness checks, all under one "job" root. A layer's self
// time is its spans' duration minus the part spans inside them cover.

const rootSpan = "job"

// call runs fn under a span named after the public call it makes.
func call[T any](ctx context.Context, name string, fn func(context.Context) (T, error)) (T, error) {
	ctx, span := trace.StartSpan(ctx, "call "+name)
	v, err := fn(ctx)
	span.End()
	return v, err
}

// layerSplit accumulates per-layer self time (ms) and span counts over
// the traced jobs of one run.
type layerSplit struct {
	selfMS map[string]float64
	count  map[string]int
	rootMS float64
	jobs   int
}

func newLayerSplit() *layerSplit {
	return &layerSplit{selfMS: map[string]float64{}, count: map[string]int{}}
}

// addJob classifies one job's span tree (a "job" root) into layers.
func (ls *layerSplit) addJob(root *trace.Node) {
	ls.jobs++
	ls.rootMS += root.DurUS / 1000
	ls.addTree([]*trace.Node{root}, "")
}

// span is one classified span as an interval of trace time (µs).
type span struct {
	lo, hi float64
	layer  string
}

// addTree classifies a span forest into layers. A non-empty rootLayer
// names the layer of the roots' own time (a bwserved reply's tree,
// whose root is the request handler).
func (ls *layerSplit) addTree(roots []*trace.Node, rootLayer string) {
	var spans []span
	var walk func(n *trace.Node, stack []string)
	walk = func(n *trace.Node, stack []string) {
		layer := classify(n, stack)
		if len(stack) == 0 && rootLayer != "" {
			layer = rootLayer
		}
		ls.count[layer]++
		spans = append(spans, span{n.StartUS, n.StartUS + n.DurUS, layer})
		for _, c := range n.Children {
			walk(c, append(stack, n.Name))
		}
	}
	for _, r := range roots {
		walk(r, nil)
	}
	for layer, us := range selfTimes(spans) {
		ls.selfMS[layer] += us / 1000
	}
}

// selfTimes gives every instant to the innermost span covering it —
// the one that started last — and totals the instants per layer. It
// works on time alone, not on parent links: the analysis manager
// parents its spans under the pipeline while they run inside a pass,
// and subtracting children alone would count that time twice.
func selfTimes(spans []span) map[string]float64 {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].lo != spans[j].lo {
			return spans[i].lo < spans[j].lo
		}
		return spans[i].hi > spans[j].hi
	})
	out := map[string]float64{}
	var open []span // innermost last; each ends no later than the one below
	var cursor float64
	closeUntil := func(t float64) {
		for len(open) > 0 {
			top := open[len(open)-1]
			if top.hi > t {
				out[top.layer] += t - cursor
				cursor = t
				return
			}
			out[top.layer] += max(0, top.hi-cursor)
			cursor = max(cursor, top.hi)
			open = open[:len(open)-1]
		}
		cursor = max(cursor, t)
	}
	for _, s := range spans {
		closeUntil(s.lo)
		if len(open) > 0 {
			s.hi = min(s.hi, open[len(open)-1].hi)
		}
		open = append(open, s)
	}
	closeUntil(math.Inf(1))
	return out
}

// classify names the layer a span's self time belongs to, given the
// names of its enclosing spans (outermost first). exec.run is split by
// why it ran (nearest enclosing span) and by engine.
func classify(n *trace.Node, stack []string) string {
	name := n.Name
	switch {
	case name == rootSpan:
		return "unattributed"
	case name == "check":
		return "check"
	case name == "exec.run":
		engine, _ := n.Attrs["engine"].(string)
		return fmt.Sprintf("exec.%s[%s]", execPurpose(stack), engine)
	case name == "call lang.Parse":
		return "lang.parse"
	case name == "call transform.OptimizeVerifiedCtx", name == "transform.optimize",
		strings.HasPrefix(name, "pass."), strings.HasPrefix(name, "step."):
		return "transform.pass"
	case strings.HasPrefix(name, "analysis."):
		return "analysis"
	case strings.HasPrefix(name, "fusion."):
		return "fusion"
	case name == "verify.structural":
		return "verify.structural"
	case name == "verify.differential", name == "transform.baseline":
		return "verify.differential"
	case name == "balance.measure":
		switch nearestCall(stack) {
		case "call balance.MeasureProfiled":
			return "balance.profile"
		case "call balance.MeasureMRC":
			return "balance.mrc"
		}
		return "balance.measure"
	case name == "call balance.MeasureWithBounds", name == "call balance.MeasureProfiled":
		// What these calls do besides measuring (a child span) and
		// running the footprint (an exec.run child) is the lower-bound
		// analysis.
		return "bounds.analyze"
	case name == "call balance.MeasureMRC":
		return "balance.mrc"
	case name == "sim.replay", strings.HasPrefix(name, "call sim.Replay"):
		return "sim.replay"
	case name == "call sim.NewRecorder", name == "call exec.Compile", name == "call exec.Run":
		return "sim.record"
	}
	return "other:" + name
}

// execPurpose says why an exec.run ran, from its enclosing spans.
func execPurpose(stack []string) string {
	for i := len(stack) - 1; i >= 0; i-- {
		switch s := stack[i]; {
		case s == "transform.baseline", s == "verify.differential":
			return "verify"
		case s == "balance.measure":
			switch nearestCall(stack[:i]) {
			case "call balance.MeasureProfiled", "call balance.MeasureMRC":
				return "observer"
			}
			return "measure"
		case s == "call exec.Run", s == "v1.analyze":
			// bwserved runs the Belady record directly under its
			// request span.
			return "observer"
		case s == "call balance.MeasureWithBounds", s == "call balance.MeasureProfiled",
			strings.HasPrefix(s, "analysis.bounds"):
			return "footprint"
		}
	}
	return "other"
}

func nearestCall(stack []string) string {
	for i := len(stack) - 1; i >= 0; i-- {
		if strings.HasPrefix(stack[i], "call ") {
			return stack[i]
		}
	}
	return ""
}

// perJob totals the self time of every layer whose name starts with
// prefix, in ms per job.
func (ls *layerSplit) perJob(prefix string) float64 {
	if ls.jobs == 0 {
		return 0
	}
	var t float64
	for l, ms := range ls.selfMS {
		if strings.HasPrefix(l, prefix) {
			t += ms
		}
	}
	return t / float64(ls.jobs)
}

// countPerJob is the number of spans per job in layers with prefix.
func (ls *layerSplit) countPerJob(prefix string) float64 {
	if ls.jobs == 0 {
		return 0
	}
	var c int
	for l, n := range ls.count {
		if strings.HasPrefix(l, prefix) {
			c += n
		}
	}
	return float64(c) / float64(ls.jobs)
}

// table renders the split, largest layer first, with each layer's
// share of the total.
func (ls *layerSplit) table() string {
	var total float64
	names := make([]string, 0, len(ls.selfMS))
	for l, ms := range ls.selfMS {
		total += ms
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return ls.selfMS[names[i]] > ls.selfMS[names[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %12s %8s %7s\n", "layer", "self ms/job", "share", "spans")
	for _, l := range names {
		share := 0.0
		if total > 0 {
			share = ls.selfMS[l] / total
		}
		fmt.Fprintf(&b, "%-34s %12.3f %7.1f%% %7d\n", l, ls.selfMS[l]/float64(max(ls.jobs, 1)), 100*share, ls.count[l])
	}
	return b.String()
}

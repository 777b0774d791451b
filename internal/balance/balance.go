// Package balance implements the paper's bandwidth-based performance
// model (Section 2.2): program balance, machine balance, demand/supply
// ratios, the CPU-utilization bound, predicted execution time and
// effective memory bandwidth.
//
// Program balance is the bytes of data transfer per floating-point
// operation at every level of the memory hierarchy, measured by running
// the program on the machine's cache simulator (the software stand-in
// for the paper's hardware counters). Machine balance is the bytes per
// flop the machine can supply at peak. Their ratio bounds CPU
// utilization: a program demanding r times the machine's memory
// bandwidth can use at most 1/r of the CPU.
package balance

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/bounds"
	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Report is the balance analysis of one program on one machine.
type Report struct {
	Program string
	Machine string

	ChannelNames []string // processor-side first
	ChannelBytes []int64
	Flops        int64

	ProgramBalance []float64 // bytes per flop, per channel
	MachineBalance []float64
	Ratios         []float64 // demand / supply per channel

	// MaxRatio is the largest demand/supply ratio and Bottleneck the
	// channel it occurs on ("CPU" when no channel is oversubscribed).
	MaxRatio   float64
	Bottleneck string
	// CPUUtilizationBound = min(1, 1/MaxRatio): the paper's bound on
	// achievable CPU utilization.
	CPUUtilizationBound float64

	// Time is the predicted execution-time breakdown and EffectiveBW
	// the memory bytes per second it implies.
	Time        machine.Time
	MemoryBytes int64
	EffectiveBW float64

	// LevelNames and LevelStats carry the per-level cache counters of
	// the simulated run (hits, misses, writebacks, channel bytes),
	// processor-side first — the raw event counts behind the balance
	// figures.
	LevelNames []string
	LevelStats []sim.Stats

	// Bound, when non-nil, is the data-movement lower bound at this
	// machine's fast-memory capacity and OptimalityGap the ratio
	// MemoryBytes/Bound.Best.Bytes (0 when no bound information).
	// Populated when the plan asks for bounds; BoundErr says why Bound
	// is nil when it asked and the analysis could not run (the
	// footprint census refused the program's size). The measurement
	// itself is still valid then: callers decide whether a missing
	// bound is an error.
	Bound         *bounds.Analysis
	OptimalityGap float64
	BoundErr      error

	// Attribution, when non-nil, breaks the traffic down by reference
	// site, loop nest and array. Populated on the primary report of a
	// Plan with Profile set.
	Attribution *Attribution

	// MRC, when non-nil, carries the one-pass reuse-distance analysis:
	// exact miss-ratio curves per level, per-array curves, the phase
	// timeline, and capacity knees against every registered machine.
	// Populated on the primary report of a Plan with MRC set.
	MRC *MRCResult

	// Belady, when non-nil, contrasts LRU with Belady's optimal
	// replacement on the primary machine's last-level access trace.
	// Populated on the primary report of a Plan with Belady set.
	Belady *Belady

	// Result carries the program's computed values for equivalence
	// checking. Every report of one Measure call shares it.
	Result *exec.Result
}

// BoundsMode selects how much of the data-movement lower bound a
// measurement computes.
type BoundsMode int

const (
	// BoundsNone computes no bound.
	BoundsNone BoundsMode = iota
	// BoundsNoPebble computes the compulsory floor only.
	BoundsNoPebble
	// BoundsFull computes the compulsory floor and the pebbling bound.
	BoundsFull
)

// Plan is everything one measurement observes. Measure runs the
// program once and feeds every observer the plan names from that one
// access stream.
type Plan struct {
	// Machines are the machine models to measure on, primary first.
	// Every machine gets its own simulated hierarchy and report.
	Machines []machine.Spec
	// Bounds attaches the lower bound to every report, each at its
	// machine's fast-memory capacity (one footprint census and one
	// pebbling pass serve them all).
	Bounds BoundsMode
	// Profile attaches per-site traffic attribution, MRC the
	// reuse-distance curves and Belady the LRU-versus-optimal replay,
	// each to the primary report only.
	Profile bool
	MRC     bool
	Belady  bool
}

// Measure runs the program once and returns one balance report per
// plan machine, primary first, each carrying the observers the plan
// asks for. The run is canceled with ctx (errors wrap
// exec.ErrCanceled) and bounded by lim.MaxSteps loop iterations
// (exec.ErrStepBudget); a zero budget means bounds.DefaultMaxSteps, so
// no measurement can wedge its caller.
//
// A plan with one consumer (one machine, no bounds, no Belady) runs
// directly on that machine's hierarchy; otherwise a tee fans the
// access stream out to every consumer. Observers never change the
// counters: every report equals what a single-observer plan on its
// machine would give.
func Measure(ctx context.Context, p *ir.Program, plan Plan, lim exec.Limits) ([]*Report, error) {
	if len(plan.Machines) == 0 {
		return nil, fmt.Errorf("balance: measurement of %s names no machine", p.Name)
	}
	for _, spec := range plan.Machines {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
	}
	if lim.MaxSteps == 0 {
		lim.MaxSteps = bounds.DefaultMaxSteps
	}
	ctx, span := trace.StartSpan(ctx, "balance.measure",
		trace.String("program", p.Name), trace.String("machine", plan.Machines[0].Name))
	reps, err := plan.run(ctx, p, lim)
	if err != nil {
		span.End(trace.String("error", err.Error()))
		return nil, err
	}
	// Attribute the simulated cost per hierarchy level: the misses at
	// each level are exactly the traffic the balance model charges to
	// the channel below it.
	r := reps[0]
	if span != nil {
		attrs := []trace.Attr{trace.Int("flops", r.Flops), trace.Int("machines", int64(len(reps)))}
		for i, name := range r.LevelNames {
			attrs = append(attrs,
				trace.Int("misses."+name, r.LevelStats[i].Misses()),
				trace.Int("writebacks."+name, r.LevelStats[i].Writebacks))
		}
		span.SetAttrs(attrs...)
	}
	span.End(trace.String("bottleneck", r.Bottleneck), trace.Int("memory_bytes", r.MemoryBytes))
	return reps, nil
}

// run is Measure's body: set up every consumer, execute once, and
// read each consumer's result off its own state.
func (plan Plan) run(ctx context.Context, p *ir.Program, lim exec.Limits) ([]*Report, error) {
	start := time.Now()
	var table *ir.SiteTable
	if plan.Profile || plan.MRC {
		// Sites are assigned on a clone so concurrent measurements of a
		// shared program never observe mutation.
		p = p.Clone()
		table = ir.AssignSites(p)
	}
	var sinks tee
	hs := make([]*sim.Hierarchy, len(plan.Machines))
	for i, spec := range plan.Machines {
		hs[i] = spec.NewHierarchy()
		sinks = append(sinks, hs[i])
	}
	if plan.Profile {
		hs[0].EnableProfiling()
	}
	if plan.MRC {
		if err := hs[0].EnableMRC(); err != nil {
			return nil, err
		}
	}
	var fp *bounds.FootprintRecorder
	var boundErr error
	if plan.Bounds != BoundsNone {
		if fp, boundErr = bounds.NewFootprintRecorder(p); boundErr == nil {
			sinks = append(sinks, fp)
		}
	}
	var rec *sim.Recorder
	if plan.Belady {
		var err error
		if rec, err = sim.NewRecorder(beladyLevel(plan.Machines[0])); err != nil {
			return nil, err
		}
		sinks = append(sinks, rec)
	}
	// The closure-compiled engine is several times faster than the tree
	// walker and differentially tested against it (internal/exec).
	cp, err := exec.Compile(p)
	if err != nil {
		return nil, err
	}
	var m exec.Machine = sinks
	if len(sinks) == 1 {
		m = sinks[0]
	}
	res, err := cp.RunCtx(ctx, m, lim)
	if err != nil {
		return nil, err
	}

	reps := make([]*Report, len(hs))
	for i, h := range hs {
		if reps[i], err = newReport(p.Name, plan.Machines[i], h, res); err != nil {
			return nil, err
		}
	}
	primary := reps[0]
	if plan.Profile {
		primary.Attribution = buildAttribution(p, table, hs[0])
	}
	if fp != nil {
		census := fp.Footprint()
		var pb *bounds.Pebble
		if plan.Bounds == BoundsFull {
			pb = bounds.ComputePebble(p)
		}
		for i, r := range reps {
			r.Bound = bounds.Assemble(p.Name, bounds.FastCapacity(plan.Machines[i]), census, pb)
			r.OptimalityGap = bounds.Gap(r.MemoryBytes, r.Bound.Best)
		}
		if primary.Attribution != nil {
			primary.Attribution.attachBounds(census)
		}
	} else if boundErr != nil {
		for _, r := range reps {
			r.BoundErr = boundErr
		}
	}
	if rec != nil {
		if primary.Belady, err = replayBelady(ctx, rec, plan.Machines[0]); err != nil {
			return nil, err
		}
	}
	if plan.MRC {
		primary.MRC = buildMRC(plan.Machines[0], table, hs[0])
		primary.MRC.MeasureNS = time.Since(start).Nanoseconds()
	}
	return reps, nil
}

// newReport computes the balance report of one machine's hierarchy
// after a run.
func newReport(prog string, spec machine.Spec, h *sim.Hierarchy, res *exec.Result) (*Report, error) {
	channels := h.ChannelBytes()
	memLines := h.LevelStats(h.Levels() - 1).Misses()
	t, err := spec.Predict(channels, h.Flops, memLines)
	if err != nil {
		return nil, err
	}
	r := &Report{
		Program:        prog,
		Machine:        spec.Name,
		ChannelNames:   spec.ChannelNames(),
		ChannelBytes:   channels,
		Flops:          h.Flops,
		MachineBalance: spec.Balance(),
		Time:           t,
		MemoryBytes:    h.MemoryBytes(),
		EffectiveBW:    machine.EffectiveBandwidth(h.MemoryBytes(), t),
		Result:         res,
	}
	for i := 0; i < h.Levels(); i++ {
		r.LevelNames = append(r.LevelNames, h.LevelConfig(i).Name)
		r.LevelStats = append(r.LevelStats, h.LevelStats(i))
	}
	r.ProgramBalance = make([]float64, len(channels))
	r.Ratios = make([]float64, len(channels))
	r.Bottleneck = "CPU"
	for i, b := range channels {
		if h.Flops > 0 {
			r.ProgramBalance[i] = float64(b) / float64(h.Flops)
		}
		r.Ratios[i] = r.ProgramBalance[i] / r.MachineBalance[i]
		if r.Ratios[i] > r.MaxRatio {
			r.MaxRatio = r.Ratios[i]
			r.Bottleneck = r.ChannelNames[i]
		}
	}
	r.CPUUtilizationBound = 1
	if r.MaxRatio > 1 {
		r.CPUUtilizationBound = 1 / r.MaxRatio
	}
	return r, nil
}

// tee fans one access stream out to several machines, so every
// consumer of a plan reads the same single execution.
type tee []exec.SiteMachine

func (t tee) Load(addr int64, size int)  { t.LoadSite(addr, size, 0) }
func (t tee) Store(addr int64, size int) { t.StoreSite(addr, size, 0) }

func (t tee) LoadSite(addr int64, size int, site uint32) {
	for _, m := range t {
		m.LoadSite(addr, size, site)
	}
}

func (t tee) StoreSite(addr int64, size int, site uint32) {
	for _, m := range t {
		m.StoreSite(addr, size, site)
	}
}

func (t tee) AddFlops(n int64) {
	for _, m := range t {
		m.AddFlops(n)
	}
}

func (t tee) Flush() {
	for _, m := range t {
		m.Flush()
	}
}

// Belady contrasts LRU with Belady's optimal replacement on the
// identical last-level access trace (Section 4.1's comparison): how
// much of the traffic a perfect-future-knowledge policy could save.
type Belady struct {
	Level    string
	Accesses int
	LRU      sim.Stats
	OPT      sim.Stats
}

// beladyLevel is the cache the Belady trace is recorded for: the
// machine's last level, forced to write-back, write-allocate, which
// the replay requires.
func beladyLevel(spec machine.Spec) sim.CacheConfig {
	cfg := spec.Caches[len(spec.Caches)-1]
	cfg.Policy = sim.WriteBack
	cfg.NoWriteAllocate = false
	return cfg
}

// replayBelady replays the trace recorded for spec's beladyLevel under
// LRU and under Belady's optimal policy.
func replayBelady(ctx context.Context, rec *sim.Recorder, spec machine.Spec) (*Belady, error) {
	t := rec.Trace()
	lru, err := sim.ReplayLRUCtx(ctx, t)
	if err != nil {
		return nil, err
	}
	opt, err := sim.ReplayBeladyCtx(ctx, t)
	if err != nil {
		return nil, err
	}
	return &Belady{Level: beladyLevel(spec).Name, Accesses: t.Len(), LRU: lru, OPT: opt}, nil
}

// Primary unwraps a Measure call for callers that want its primary
// report only and treat a planned lower bound as part of the answer: a
// bound that could not be computed becomes an error.
func Primary(reps []*Report, err error) (*Report, error) {
	if err != nil {
		return nil, err
	}
	r := reps[0]
	if r.BoundErr != nil {
		return nil, fmt.Errorf("balance: lower bound for %s: %w", r.Program, r.BoundErr)
	}
	return r, nil
}

// MeasureWithBounds measures p on spec with the full lower bound
// attached; a bound that cannot be computed is an error.
func MeasureWithBounds(ctx context.Context, p *ir.Program, spec machine.Spec, lim exec.Limits) (*Report, error) {
	return Primary(Measure(ctx, p, Plan{Machines: []machine.Spec{spec}, Bounds: BoundsFull}, lim))
}

// Speedup returns how much faster the "after" run is predicted to be.
func Speedup(before, after *Report) float64 {
	if after.Time.Total == 0 {
		return 0
	}
	return before.Time.Total / after.Time.Total
}

// String renders the report as a small table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s: %d flops\n", r.Program, r.Machine, r.Flops)
	for i, name := range r.ChannelNames {
		fmt.Fprintf(&b, "  %-8s %12d B  balance %6.2f B/flop  machine %5.2f  ratio %5.2f\n",
			name, r.ChannelBytes[i], r.ProgramBalance[i], r.MachineBalance[i], r.Ratios[i])
	}
	fmt.Fprintf(&b, "  bottleneck %s, max ratio %.2f, CPU utilization bound %.1f%%\n",
		r.Bottleneck, r.MaxRatio, 100*r.CPUUtilizationBound)
	fmt.Fprintf(&b, "  predicted time %.6fs, effective bandwidth %.1f MB/s\n",
		r.Time.Total, r.EffectiveBW/machine.MB)
	if r.Bound != nil && r.Bound.Best.Bytes > 0 {
		fmt.Fprintf(&b, "  traffic lower bound %d B (%s), optimality gap %.2fx\n",
			r.Bound.Best.Bytes, r.Bound.Best.Kind, r.OptimalityGap)
	}
	return b.String()
}

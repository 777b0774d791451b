package main

import (
	"context"

	"repro/internal/balance"
	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transform"
	"repro/internal/verify"
)

// jobResult is what one CLI job reports besides its wall time: the
// exact outputs the end-to-end ratios are built from.
type jobResult struct {
	// ratio is optimized ÷ original memory bytes for an optimize job,
	// and Belady ÷ LRU last-level misses for an analyze job.
	ratio float64
	// gaps are measured ÷ lower-bound bytes, one per measurement the
	// job reports (zero gaps carry no bound information and are left
	// out of the geometric mean).
	gaps []float64
	// accesses counts the simulated accesses of the job's measurements.
	accesses int64
	// The optimizer's own counts, for the per-layer split.
	actions, checkpoints, skipped  int
	analysisRequests, analysisHits uint64
}

type jobFunc func(ctx context.Context, in input) (jobResult, error)

// cliSpec is the machine the CLI jobs measure on: bwopt's default
// Origin2000 with -scale cliScale.
func cliSpec() machine.Spec { return machine.Scaled(machine.Origin2000(), cliScale) }

// optimizeJob is `bwopt -verify <mode> -scale 128 prog.bw`: parse,
// run the verified pipeline, measure original and optimized with their
// lower bounds, then check the outputs.
func optimizeJob(mode verify.Mode) jobFunc {
	spec := cliSpec()
	return func(ctx context.Context, in input) (jobResult, error) {
		var r jobResult
		p, err := call(ctx, "lang.Parse", func(context.Context) (*ir.Program, error) { return lang.Parse(in.src) })
		if err != nil {
			return r, err
		}
		q, err := call(ctx, "transform.OptimizeVerifiedCtx", func(ctx context.Context) (*ir.Program, error) {
			q, out, err := transform.OptimizeVerifiedCtx(ctx, p, transform.Config{Options: transform.All(), Verify: mode})
			if out != nil {
				r.actions, r.checkpoints, r.skipped = len(out.Actions), out.Checkpoints, len(out.Skipped)
				tot := out.Analysis.Total()
				r.analysisRequests, r.analysisHits = tot.Requests, tot.Hits
			}
			return q, err
		})
		if err != nil {
			return r, err
		}
		measure := func(p *ir.Program) (*balance.Report, error) {
			return call(ctx, "balance.MeasureWithBounds", func(ctx context.Context) (*balance.Report, error) {
				return balance.MeasureWithBounds(ctx, p, spec, exec.Limits{})
			})
		}
		before, err := measure(p)
		if err != nil {
			return r, err
		}
		after, err := measure(q)
		if err != nil {
			return r, err
		}
		_, span := trace.StartSpan(ctx, "check")
		defer span.End()
		if err := checkOptimized(before, after); err != nil {
			return r, err
		}
		r.ratio = float64(after.MemoryBytes) / float64(before.MemoryBytes)
		r.gaps = []float64{after.OptimalityGap}
		r.accesses = accesses(before) + accesses(after)
		return r, nil
	}
}

// checkOptimized holds the checks of one optimize job: the optimized
// program prints what the original printed and leaves every shared
// scalar as it was, by the verifier's own rule, and both lower bounds
// are sound.
func checkOptimized(before, after *balance.Report) error {
	if err := verify.CompareResults(before.Result, after.Result, verify.DefaultTol); err != nil {
		return err
	}
	if err := checkBound(before); err != nil {
		return err
	}
	return checkBound(after)
}

// observerSpecs are every registered machine at the observer scale.
func observerSpecs() []machine.Spec {
	var specs []machine.Spec
	for _, e := range machine.Entries() {
		specs = append(specs, machine.Scaled(e.Spec, observerScale))
	}
	return specs
}

// analyzeJob is the fully flagged `bwsim -profile -mrc` on every
// registered machine, plus the Belady-versus-LRU record and replay
// bwserved's "belady" runs on the first machine. No optimizer runs.
func analyzeJob() jobFunc {
	specs := observerSpecs()
	return func(ctx context.Context, in input) (jobResult, error) {
		var r jobResult
		p, err := call(ctx, "lang.Parse", func(context.Context) (*ir.Program, error) { return lang.Parse(in.src) })
		if err != nil {
			return r, err
		}
		for _, spec := range specs {
			prof, err := call(ctx, "balance.MeasureProfiled", func(ctx context.Context) (*balance.Report, error) {
				return balance.MeasureProfiled(ctx, p, spec, exec.Limits{})
			})
			if err != nil {
				return r, err
			}
			m, err := call(ctx, "balance.MeasureMRC", func(ctx context.Context) (*balance.Report, error) {
				return balance.MeasureMRC(ctx, p, spec, exec.Limits{})
			})
			if err != nil {
				return r, err
			}
			_, span := trace.StartSpan(ctx, "check")
			err = checkObserved(prof, m.MRC)
			span.End()
			if err != nil {
				return r, err
			}
			r.gaps = append(r.gaps, prof.OptimalityGap)
			r.accesses += accesses(prof) + accesses(m)
		}
		lru, opt, err := beladyReplay(ctx, p, specs[0])
		if err != nil {
			return r, err
		}
		_, span := trace.StartSpan(ctx, "check")
		defer span.End()
		if err := checkReplay(lru, opt); err != nil {
			return r, err
		}
		r.ratio = float64(opt.Misses()) / float64(lru.Misses())
		return r, nil
	}
}

// checkObserved holds the checks of one machine's observers.
func checkObserved(prof *balance.Report, m *balance.MRCResult) error {
	if err := checkBound(prof); err != nil {
		return err
	}
	if err := checkAttribution(prof); err != nil {
		return err
	}
	return checkMRC(m, prof)
}

// beladyReplay records the access stream at the machine's last cache
// level and replays it under LRU and Belady's optimal policy, as
// bwserved's "belady" analysis does.
func beladyReplay(ctx context.Context, p *ir.Program, spec machine.Spec) (lru, opt sim.Stats, err error) {
	cfg := spec.Caches[len(spec.Caches)-1]
	cfg.Policy = sim.WriteBack
	cfg.NoWriteAllocate = false
	rec, err := call(ctx, "sim.NewRecorder", func(context.Context) (*sim.Recorder, error) { return sim.NewRecorder(cfg) })
	if err != nil {
		return lru, opt, err
	}
	cp, err := call(ctx, "exec.Compile", func(context.Context) (*exec.Compiled, error) { return exec.Compile(p) })
	if err != nil {
		return lru, opt, err
	}
	if _, err := call(ctx, "exec.Run", func(ctx context.Context) (*exec.Result, error) {
		return cp.RunCtx(ctx, rec, exec.Limits{})
	}); err != nil {
		return lru, opt, err
	}
	t := rec.Trace()
	if lru, err = call(ctx, "sim.ReplayLRUCtx", func(ctx context.Context) (sim.Stats, error) { return sim.ReplayLRUCtx(ctx, t) }); err != nil {
		return lru, opt, err
	}
	opt, err = call(ctx, "sim.ReplayBeladyCtx", func(ctx context.Context) (sim.Stats, error) { return sim.ReplayBeladyCtx(ctx, t) })
	return lru, opt, err
}

// accesses is the number of processor accesses a measurement simulated.
func accesses(r *balance.Report) int64 {
	if len(r.LevelStats) == 0 {
		return 0
	}
	return r.LevelStats[0].Reads + r.LevelStats[0].Writes
}

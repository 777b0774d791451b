package core

import (
	"context"
	"fmt"

	"repro/internal/balance"
	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/report"
)

// OptimalityGap measures the paper kernels against the data-movement
// lower bound (internal/bounds) on every registered machine model,
// before and after the verified default pipeline: how close does
// measured traffic sit to the floor any schedule must pay, and how
// much of the distance does the optimizer close? Iterating the whole
// registry doubles as the bound-soundness sweep — CI asserts every
// machine/kernel row keeps gap >= 1.0. The raw byte columns are
// unformatted so machine consumers (CI, EXPERIMENTS.md tooling) can
// parse them.
func OptimalityGap(cfg Config) (*report.Table, error) {
	t := &report.Table{
		Title:   "Optimality gap: measured traffic vs data-movement lower bound",
		Headers: []string{"machine", "kernel", "variant", "measured B", "bound B", "bound kind", "gap"},
	}
	rows := []struct {
		name string
		p    *ir.Program
	}{
		{"convolution", kernels.Convolution(cfg.ConvN)},
		{"dmxpy", kernels.Dmxpy(cfg.DmxpyN)},
		{"mm-jki", kernels.MatmulJKI(cfg.MMN)},
		{"fig6", kernels.Fig6Original(cfg.Fig6N)},
		{"fig7", kernels.Fig7Original(cfg.Fig8N)},
	}
	for _, spec := range cfg.machines() {
		plan := balance.Plan{Machines: []machine.Spec{spec}, Bounds: balance.BoundsFull}
		for _, k := range rows {
			before, err := balance.Primary(balance.Measure(context.Background(), k.p, plan, exec.Limits{}))
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", k.name, spec.Name, err)
			}
			opt, _, err := Optimize(k.p)
			if err != nil {
				return nil, fmt.Errorf("optimize %s: %w", k.name, err)
			}
			after, err := balance.Primary(balance.Measure(context.Background(), opt, plan, exec.Limits{}))
			if err != nil {
				return nil, fmt.Errorf("%s (optimized) on %s: %w", k.name, spec.Name, err)
			}
			addGapRow(t, spec.Name, k.name, "original", before)
			addGapRow(t, spec.Name, k.name, "optimized", after)
		}
	}
	t.AddNote("bound: max of compulsory live-in/live-out traffic and the red-blue pebbling S-partition bound")
	t.AddNote("gap = measured/bound; a sound bound keeps every gap >= 1.00x, and 1.00x means provably minimal traffic")
	return t, nil
}

func addGapRow(t *report.Table, mach, kernel, variant string, r *balance.Report) {
	bound, kind := int64(0), "none"
	if r.Bound != nil {
		bound, kind = r.Bound.Best.Bytes, r.Bound.Best.Kind
	}
	t.AddRow(mach, kernel, variant, fmt.Sprint(r.MemoryBytes), fmt.Sprint(bound), kind,
		report.Gap(r.OptimalityGap))
}

package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/lang"
	"repro/internal/trace"
)

// cliWorkload is a workload of sequential jobs, one input at a time,
// as a user running bwopt or bwsim would.
type cliWorkload struct {
	draw func(seed uint64) []input
	job  jobFunc
	// warm is how many leading pool inputs run once, untimed, before
	// measuring: one per kernel family, so every code path has run.
	warm int
}

// exportJobs is how many traced jobs go into the Chrome trace file.
const exportJobs = 12

func (w cliWorkload) setup(seed uint64) ([]input, error) {
	pool := w.draw(seed)
	for _, in := range pool {
		p, err := lang.Parse(in.src)
		if err == nil {
			err = p.Validate()
		}
		if err != nil {
			return nil, fmt.Errorf("generated input %s: %w", in.name, err)
		}
	}
	return pool, nil
}

// run measures the workload for d. With traced set, every job runs
// twice back to back, untraced and then traced, so the traced run also
// measures what tracing costs.
func (w cliWorkload) run(o *outcome, seed uint64, d time.Duration, traced bool, traceFile string) error {
	pool, err := w.setup(seed)
	if err != nil {
		return err
	}
	ctx := context.Background()
	exact := make([]*jobResult, len(pool))
	ran := make([]bool, len(pool))
	runOne := func(i int, ctx context.Context) (time.Duration, jobResult, bool) {
		in := pool[i]
		start := time.Now()
		res, err := w.job(ctx, in)
		el := time.Since(start)
		o.attempted++
		ran[i] = true
		if err != nil {
			o.fail(fmt.Sprintf("%s: %v", in.name, err))
			return el, res, false
		}
		if exact[i] == nil {
			exact[i] = &res
		}
		return el, res, true
	}
	for i := 0; i < w.warm && i < len(pool); i++ {
		runOne(i, ctx)
	}
	if o.setupOnly {
		return nil
	}

	split := newLayerSplit()
	export := trace.New()
	var untracedMS, tracedMS float64
	start := time.Now()
	for i := 0; time.Since(start) < d; i = (i + 1) % len(pool) {
		before := readRuntime()
		el, _, ok := runOne(i, ctx)
		o.rt.add(before, readRuntime())
		o.speed.sample()
		if !ok {
			continue
		}
		o.jobMS = append(o.jobMS, ms(el))
		if !traced {
			continue
		}
		tr := export
		if split.jobs >= exportJobs {
			tr = trace.New()
		}
		root := tr.Start(nil, rootSpan, trace.String("input", pool[i].name))
		tel, tres, tok := runOne(i, trace.NewContext(ctx, root))
		root.End()
		if !tok {
			continue
		}
		untracedMS += ms(el)
		tracedMS += ms(tel)
		roots := tr.Tree()
		split.addJob(roots[len(roots)-1])
		o.addCounts(tres)
	}

	// The exact ratios cover the whole pool, so that they depend on the
	// seed alone and not on how many jobs a run got through: inputs the
	// timed loop did not reach run now, untimed but checked.
	var untimed int
	for i := range pool {
		if !ran[i] {
			runOne(i, ctx)
			untimed++
		}
	}
	for _, r := range exact {
		if r != nil {
			o.ratios = append(o.ratios, r.ratio)
			o.gaps = append(o.gaps, r.gaps...)
		}
	}
	o.coverage = fmt.Sprintf("all %d pool inputs, %d of them after the timed phase", len(pool), untimed)
	if traced {
		o.split = split
		if untracedMS > 0 {
			o.traceOverhead = tracedMS/untracedMS - 1
		}
		if err := writeFile(traceFile, export.WriteChromeTrace); err != nil {
			return err
		}
	}
	return nil
}

// writeFile creates path, with its directory, and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

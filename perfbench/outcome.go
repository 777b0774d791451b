package main

import (
	"fmt"
	"math"
	"os"
	"sort"
)

// outcome collects one run's measurements, whatever the workload.
type outcome struct {
	workload string
	// setupOnly makes a run stop once it is set up and warm: the run
	// is one of the cold set-ups that setup_s times.
	setupOnly         bool
	setupS            float64 // median cold set-up, wall clock
	setupSpeed        *speedMeter
	attempted, failed int
	failures          []string

	jobMS   []float64 // per job (CLI) or per closed-loop request from send (serve), wall clock
	ratios  []float64 // one per distinct input, see jobResult.ratio
	gaps    []float64 // one per distinct measurement with a bound
	peakRSS float64
	// speed samples the reference loop between the timed jobs or
	// requests; every timing is reported at reference speed.
	speed speedMeter

	// CLI only.
	coverage string
	rt       runtimeDelta

	// serve-mix only: closed-loop 2xx replies per second, wall clock.
	capacityRPS float64
	serve       *serveStats

	// Traced runs only.
	split         *layerSplit
	traceOverhead float64
	counts        jobResult // summed over traced jobs
}

func (o *outcome) fail(msg string) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, msg)
	}
}

// addCounts sums a traced job's counts for the per-layer metrics.
func (o *outcome) addCounts(r jobResult) {
	c := &o.counts
	c.accesses += r.accesses
	c.actions += r.actions
	c.checkpoints += r.checkpoints
	c.skipped += r.skipped
	c.analysisRequests += r.analysisRequests
	c.analysisHits += r.analysisHits
}

// runtimeDelta accumulates Go runtime counter deltas over measured jobs.
type runtimeDelta struct {
	allocBytes, gcCycles uint64
	pauseSec             float64
	jobs                 int
}

func (d *runtimeDelta) add(before, after runtimeSample) {
	d.allocBytes += after.allocBytes - before.allocBytes
	d.gcCycles += after.gcCycles - before.gcCycles
	d.pauseSec += after.pauseSec - before.pauseSec
	d.jobs++
}

func (d runtimeDelta) perJob(v float64) float64 {
	if d.jobs == 0 {
		return 0
	}
	return v / float64(d.jobs)
}

// endToEnd builds the metrics a user of the system sees, every timing
// at reference speed.
func (o *outcome) endToEnd() map[string]metric {
	f := o.speed.factor()
	m := map[string]metric{
		"setup_s":        {o.setupS * o.setupSpeed.factor(), "s"},
		"job_ms_p50":     {finite(percentile(o.jobMS, 0.5) * f), "ms"},
		"job_ms_p90":     {finite(percentile(o.jobMS, 0.9) * f), "ms"},
		"jobs_per_s":     {o.throughput() / f, "1/s"},
		"traffic_ratio":  {geomean(o.ratios), "ratio"},
		"optimality_gap": {geomean(o.gaps), "ratio"},
		"peak_rss_mb":    {o.peakRSS, "MiB"},
	}
	return m
}

// throughput is the wall-clock rate of successful jobs: the closed-loop
// capacity on serve-mix and, on the CLI workloads, jobs per second of
// job time, one job at a time.
func (o *outcome) throughput() float64 {
	if o.serve != nil {
		return o.capacityRPS
	}
	var sum float64
	for _, v := range o.jobMS {
		sum += v
	}
	return ratioOrZero(float64(len(o.jobMS))*1e3, sum)
}

// perLayer builds the per-layer metrics of a traced run. A layer the
// workload bypasses reads 0.
func (o *outcome) perLayer() map[string]metric {
	ls := o.split
	jobs := float64(max(ls.jobs, 1))
	c := o.counts
	measureMS := ls.perJob("exec.measure") + ls.perJob("exec.observer")
	m := map[string]metric{
		"exec.verify_ms":            {ls.perJob("exec.verify"), "ms"},
		"exec.measure_ms":           {ls.perJob("exec.measure"), "ms"},
		"exec.observer_ms":          {ls.perJob("exec.observer"), "ms"},
		"exec.footprint_ms":         {ls.perJob("exec.footprint"), "ms"},
		"exec.runs_per_job":         {ls.countPerJob("exec."), "count"},
		"sim.accesses_per_job":      {float64(c.accesses) / jobs, "count"},
		"sim.ns_per_access":         {ratioOrZero(measureMS*1e6, float64(c.accesses)/jobs), "ns"},
		"sim.replay_ms":             {ls.perJob("sim."), "ms"},
		"balance.profile_ms":        {ls.perJob("balance.profile"), "ms"},
		"balance.mrc_ms":            {ls.perJob("balance.mrc"), "ms"},
		"bounds.analyze_ms":         {ls.perJob("bounds.analyze"), "ms"},
		"transform.pass_self_ms":    {ls.perJob("transform.pass"), "ms"},
		"transform.actions":         {float64(c.actions) / jobs, "count"},
		"transform.commit_ratio":    {ratioOrZero(float64(c.checkpoints), float64(c.checkpoints+c.skipped)), "ratio"},
		"analysis.self_ms":          {ls.perJob("analysis"), "ms"},
		"analysis.hit_ratio":        {ratioOrZero(float64(c.analysisHits), float64(c.analysisRequests)), "ratio"},
		"fusion.self_ms":            {ls.perJob("fusion"), "ms"},
		"verify.structural_ms":      {ls.perJob("verify.structural"), "ms"},
		"lang.parse_ms":             {ls.perJob("lang.parse"), "ms"},
		"check.self_ms":             {ls.perJob("check"), "ms"},
		"runtime.alloc_mb_per_job":  {o.rt.perJob(float64(o.rt.allocBytes)) / (1 << 20), "MiB"},
		"runtime.gc_cycles_per_job": {o.rt.perJob(float64(o.rt.gcCycles)), "count"},
		"runtime.gc_pause_ms":       {o.rt.perJob(o.rt.pauseSec * 1e3), "ms"},
		"trace.overhead_ratio":      {o.traceOverhead, "ratio"},
		"trace.unattributed_ratio":  {ratioOrZero(ls.selfMS["unattributed"], ls.rootMS), "ratio"},
	}
	for k, v := range o.serve.layerMetrics() {
		m[k] = v
	}
	f := o.speed.factor()
	for k, v := range m {
		if v.Unit == "ms" || v.Unit == "ns" {
			m[k] = metric{v.Value * f, v.Unit}
		}
	}
	return m
}

// finite maps the +Inf latency of a failed request, which JSON cannot
// carry, to the largest float.
func finite(v float64) float64 { return min(v, math.MaxFloat64) }

func ratioOrZero(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// printReport writes the human-readable report: every metric with its
// unit, the error rate, and the sample counts behind the percentiles.
func (o *outcome) printReport(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s: %d attempted, %d failed\n", o.workload, res.Attempted, res.Failed)
	fmt.Printf("  %-32s %14.6f %s\n", "error_rate", ratioOrZero(float64(res.Failed), float64(res.Attempted)), "ratio")
	for _, n := range names {
		fmt.Printf("  %-32s %14.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	f := o.speed.factor()
	if q := tailQuantile(len(o.jobMS), 0.5, 0.9, 0.95, 0.99, 0.999); q > 0 {
		fmt.Printf("  %d timed samples; highest percentile with 10 beyond it: p%g = %.3f ms\n",
			len(o.jobMS), 100*q, percentile(o.jobMS, q)*f)
	} else {
		fmt.Printf("  %d timed samples: too few for any tail percentile\n", len(o.jobMS))
	}
	fmt.Printf("  metric timings are at reference speed (reference loop = %g ms): the loop's median was %.4f ms over %d samples\n",
		refLoopMS, o.speed.loopMS(), len(o.speed.cal))
	if o.setupSpeed != nil {
		fmt.Printf("  wall clock: job_ms_p50 %.3f ms, job_ms_p90 %.3f ms, jobs_per_s %.3f 1/s, setup_s %.4f s (loop %.4f ms in set-up)\n",
			finite(percentile(o.jobMS, 0.5)), finite(percentile(o.jobMS, 0.9)), o.throughput(), o.setupS, o.setupSpeed.loopMS())
	}
	if st := o.serve; st != nil {
		fmt.Printf("  open loop at %g requests/s: %d requests; latency from due time p50 %.3f ms, p90 %.3f ms; sender late p90 %.3f ms\n",
			openRate, len(st.dueMS), finite(percentile(st.dueMS, 0.5))*f, finite(percentile(st.dueMS, 0.9))*f, percentile(st.late, 0.9)*f)
	}
	if o.coverage != "" {
		fmt.Printf("  exact ratios over %s\n", o.coverage)
	}
	for _, f := range o.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
}

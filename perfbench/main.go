// Command perfbench is the repository benchmark. It drives the public
// functions of lang, transform, balance, bounds, sim and service from
// outside, in the order bwopt, bwsim and a bwserved client call them,
// on one of four seeded workloads, checks every job's outputs, and
// prints each metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload optimize-verified --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// traces every job and reports the per-layer split instead, writing a
// Chrome trace of the first jobs under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/verify"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(o *outcome, seed uint64, d time.Duration, traced bool, traceFile string) error{
	"optimize-verified": cliWorkload{
		draw: func(seed uint64) []input { return drawKernels(newRand(seed), verifiedFamilies, 12) },
		job:  optimizeJob(verify.ModeDifferential),
		warm: len(verifiedFamilies),
	}.run,
	"optimize-manynest": cliWorkload{
		draw: func(seed uint64) []input { return drawManyNest(newRand(seed), 24) },
		job:  optimizeJob(verify.ModeStructural),
		warm: 4,
	}.run,
	"analyze-observers": cliWorkload{
		draw: func(seed uint64) []input { return drawKernels(newRand(seed), observerFamilies, 6) },
		job:  analyzeJob(),
		warm: len(observerFamilies),
	}.run,
	"serve-mix": runServe,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "how long to measure")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer split")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench-traces"), "directory for Chrome traces")
	setupOnly := flag.Bool("setup-only", false, "set the workload up, warm it and exit (the cold set-ups setup_s times)")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	o := &outcome{workload: *workload, setupOnly: *setupOnly, speed: speedMeter{loop: loopFor(*workload)}}
	traceFile := filepath.Join(*out, fmt.Sprintf("%s-seed%d.trace.json", *workload, *seed))
	d := time.Duration(*seconds * float64(time.Second))
	if !*setupOnly && *traced == 0 {
		var err error
		o.setupS, o.setupSpeed, err = timeSetup([]string{"--workload", *workload, "--seed", strconv.FormatUint(*seed, 10),
			"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64)}, o.speed.loop)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	if err := run(o, *seed, d, *traced == 1, traceFile); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *setupOnly {
		return
	}
	o.peakRSS = peakRSSMiB()
	res := result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
	}
	if *traced == 1 {
		res.Metrics = o.perLayer()
		fmt.Printf("per-layer self time, %s, seed %d, %d traced jobs (Chrome trace: %s)\n", *workload, *seed, o.split.jobs, traceFile)
		fmt.Print(o.split.table())
		if o.serve != nil {
			fmt.Printf("cache-hit requests only (%d):\n", o.serve.hotSplit.jobs)
			fmt.Print(o.serve.hotSplit.table())
		}
	} else {
		res.Metrics = o.endToEnd()
	}
	o.printReport(res)
	if res.Attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no job attempted")
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setupReps is how many cold set-ups a run times; setup_s is their
// median, so that one slow set-up does not move it.
const setupReps = 9

// setupLoops is how many reference loops run before each cold set-up.
const setupLoops = 10

// timeSetup times setupReps cold set-ups of the workload and returns
// their median in seconds, with the reference-loop times taken between
// them. Each is a fresh process running this program with --setup-only:
// it starts, builds its inputs (and, for serve-mix, a server answering
// GET /v1/kernels), runs the untimed warm-up jobs or hot requests the
// measured run starts with, and exits. A fresh process pays every
// one-time cost of the program again, so work moved into one-time
// initialisation shows in setup_s.
func timeSetup(args []string, loop refLoop) (float64, *speedMeter, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	speed := &speedMeter{loop: loop}
	var secs []float64
	for i := 0; i < setupReps; i++ {
		for range setupLoops {
			speed.sample()
		}
		cmd := exec.Command(exe, append(args, "--setup-only")...)
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, nil, fmt.Errorf("cold set-up %d: %w", i+1, err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), speed, nil
}

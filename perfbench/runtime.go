package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
)

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint64
	pauseSec   float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

// readRuntime samples the counters through runtime/metrics. The GC
// pause total is summed from the pause histogram at bucket midpoints,
// so it is approximate to within a bucket's width per pause.
func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		for i, c := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			switch {
			case c == 0:
			case lo < 0 || hi > 1e9: // open-ended edge buckets
				out.pauseSec += float64(c) * max(lo, 0)
			default:
				out.pauseSec += float64(c) * (lo + hi) / 2
			}
		}
	}
	return out
}

// peakRSSMiB returns the process's peak resident set (VmHWM) in MiB,
// or 0 where /proc is not available.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

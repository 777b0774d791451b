package main

import (
	"errors"
	"fmt"

	"repro/internal/balance"
	"repro/internal/sim"
)

// The checks below recompute each oracle from the program's outputs.
// A job whose outputs fail one counts as failed.

// checkBound requires a lower bound that does not exceed the measured
// memory traffic.
func checkBound(r *balance.Report) error {
	if r.Bound == nil {
		return errors.New("no lower bound attached")
	}
	if b := r.Bound.Best.Bytes; b > r.MemoryBytes {
		return fmt.Errorf("%s on %s: lower bound %d B exceeds measured %d B", r.Program, r.Machine, b, r.MemoryBytes)
	}
	return nil
}

// checkAttribution requires the per-array memory traffic to sum to
// the measured total, and the per-site traffic at every cache level to
// sum to that level's total.
func checkAttribution(r *balance.Report) error {
	a := r.Attribution
	if a == nil {
		return errors.New("no attribution attached")
	}
	var arrays int64
	for _, at := range a.Arrays {
		arrays += at.MemoryBytes
	}
	if arrays != r.MemoryBytes {
		return fmt.Errorf("%s on %s: arrays sum to %d memory bytes, measured %d", r.Program, r.Machine, arrays, r.MemoryBytes)
	}
	for l, total := range r.LevelStats {
		var sites int64
		for _, s := range a.Sites {
			if l < len(s.Levels) {
				sites += s.Levels[l].Traffic()
			}
		}
		if sites != total.Traffic() {
			return fmt.Errorf("%s on %s: sites sum to %d B at %s, level total %d", r.Program, r.Machine, sites, r.LevelNames[l], total.Traffic())
		}
	}
	return nil
}

// checkMRC requires the miss-ratio curve, evaluated at the machine's
// own last-level capacity, to reproduce the memory traffic the fixed
// simulation of the same program measured.
func checkMRC(m *balance.MRCResult, r *balance.Report) error {
	if m == nil {
		return errors.New("no miss-ratio curve attached")
	}
	lv := m.MemLevel()
	if lv == nil {
		return errors.New("miss-ratio curve has no memory-facing level")
	}
	for _, pt := range lv.Points {
		if pt.CapacityBytes == lv.CapacityBytes {
			if pt.TrafficBytes != r.MemoryBytes {
				return fmt.Errorf("%s on %s: MRC at %d B gives %d memory bytes, simulation %d",
					r.Program, r.Machine, lv.CapacityBytes, pt.TrafficBytes, r.MemoryBytes)
			}
			return nil
		}
	}
	return fmt.Errorf("%s on %s: MRC has no point at the configured %d B", r.Program, r.Machine, lv.CapacityBytes)
}

// checkReplay requires Belady's optimal replacement to miss no more
// often than LRU on the same trace, and the trace to miss at all.
func checkReplay(lru, opt sim.Stats) error {
	if lru.Misses() <= 0 || opt.Misses() <= 0 {
		return fmt.Errorf("replay counted no misses (LRU %d, Belady %d)", lru.Misses(), opt.Misses())
	}
	if opt.Misses() > lru.Misses() {
		return fmt.Errorf("Belady missed %d times, more than LRU's %d", opt.Misses(), lru.Misses())
	}
	return nil
}

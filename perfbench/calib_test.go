package main

import "testing"

func TestSpeedFactor(t *testing.T) {
	m := speedMeter{loop: cliLoop}
	if f := m.factor(); f != 1 {
		t.Errorf("factor without samples = %g, want 1", f)
	}
	m.cal = []float64{2 * refLoopMS, 4 * refLoopMS, 2 * refLoopMS}
	if f := m.factor(); f != 0.5 {
		t.Errorf("factor with a median loop time of twice the reference = %g, want 0.5", f)
	}
	if d := m.sample(); d <= 0 || len(m.cal) != 4 {
		t.Errorf("sample took %v and left %d samples, want a positive time and 4", d, len(m.cal))
	}
}

package main

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/lang"
)

func TestGeneratorsAreDeterministic(t *testing.T) {
	gens := map[string]func(seed uint64) any{
		"verified":  func(s uint64) any { return drawKernels(newRand(s), verifiedFamilies, 2) },
		"observers": func(s uint64) any { return drawKernels(newRand(s), observerFamilies, 2) },
		"manynest":  func(s uint64) any { return drawManyNest(newRand(s), 2) },
		"arrivals":  func(s uint64) any { return arrivals(newRand(s), openRate, 2*time.Second) },
		"mix": func(s uint64) any {
			g := newMixGen(s)
			var out []request
			for i := 0; i < 200; i++ {
				out = append(out, g.next())
			}
			return out
		},
	}
	for name, gen := range gens {
		if a, b := gen(7), gen(7); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different inputs", name)
		}
		if a, b := gen(7), gen(8); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
}

func TestGeneratedProgramsParseValidateAndRun(t *testing.T) {
	var pool []input
	for seed := uint64(1); seed <= 3; seed++ {
		pool = append(pool, drawManyNest(newRand(seed), 3)...)
		pool = append(pool, drawKernels(newRand(seed), observerFamilies, 1)...)
	}
	for _, in := range pool {
		p, err := lang.Parse(in.src)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		res, err := exec.Run(p, nil)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if len(res.Prints) == 0 {
			t.Errorf("%s prints nothing, so its optimized output cannot be checked", in.name)
		}
	}
}

func TestMixShares(t *testing.T) {
	g := newMixGen(3)
	var hot, opt, cold int
	seen := map[string]bool{}
	const n = 3000
	for i := 0; i < n; i++ {
		r := g.next()
		if r.hot {
			hot++
			continue
		}
		cold++
		if seen[r.key] {
			t.Fatalf("cold request %s repeats an earlier key", r.key)
		}
		seen[r.key] = true
		if r.path == "/v1/optimize" {
			opt++
		}
	}
	if hot != n*hotPerBlock/blockSize {
		t.Errorf("hot share %d of %d, want exactly %d", hot, n, n*hotPerBlock/blockSize)
	}
	if got := float64(opt) / float64(cold); got < 0.29 || got > 0.31 {
		t.Errorf("optimize share of cold requests %.3f, want 0.30", got)
	}
}

func TestStratifiedDrawsFallInTheirStratum(t *testing.T) {
	rng := newRand(5)
	for _, c := range []struct{ lo, hi, strata int }{{4096, 5120, 12}, {42, 46, 12}, {16, 18, 6}, {26, 29, 10}} {
		span := float64(c.hi - c.lo + 1)
		for k := 0; k < c.strata; k++ {
			for i := 0; i < 50; i++ {
				n := stratified(rng, c.lo, c.hi, k, c.strata)
				lo := c.lo + int(float64(k)*span/float64(c.strata))
				hi := c.lo + int(float64(k+1)*span/float64(c.strata))
				if n < c.lo || n > c.hi || n < lo || n > hi {
					t.Fatalf("[%d,%d] stratum %d of %d: drew %d, outside [%d,%d]", c.lo, c.hi, k, c.strata, n, lo, hi)
				}
			}
		}
	}
}

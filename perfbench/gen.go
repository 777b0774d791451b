package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"time"

	"repro/internal/ir"
	"repro/internal/kernels"
)

// Every input the benchmark feeds the program is drawn here from the
// workload seed, so one seed always yields the same inputs.

// newRand returns the generator every workload draws its inputs from.
func newRand(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)) }

// input is one job's program, as the source text a CLI user would hand
// to bwopt or bwsim.
type input struct {
	name string
	src  string
}

// kernelFamily is one paper kernel and the size range it is drawn from.
type kernelFamily struct {
	name   string
	lo, hi int
	build  func(n int) *ir.Program
}

// cliScale divides every cache capacity of the machine models. At 128
// the Origin2000's L2 holds 32 KiB, so the optimize-verified sizes below
// all have footprints beyond the last-level cache, as the paper's
// full-size workloads did on the real machine.
const cliScale = 128

// verifiedFamilies are the optimize-verified draws: footprints from
// about 1.3x to 2.5x the scaled last-level cache. The size ranges are
// narrow so that the percentiles of a run do not depend on which sizes
// a seed drew. mm-jki, the kernel the roadmap's engine work targets, is
// drawn twice per round; with seven draws a round the median job falls
// inside one family's sizes rather than between two families, where it
// would jump from seed to seed.
var verifiedFamilies = []kernelFamily{
	{"fig7", 4096, 5120, kernels.Fig7Original},
	{"fig8", 4096, 5120, observable(kernels.Fig8Workload)},
	{"conv", 4096, 5120, observable(kernels.Convolution)},
	{"dmxpy", 80, 88, observable(kernels.Dmxpy)},
	{"mm-jki", 42, 46, observable(kernels.MatmulJKI)},
	{"mm-jki", 42, 46, observable(kernels.MatmulJKI)},
	{"sweep3d", 40, 44, observable(func(n int) *ir.Program { return kernels.Sweep3D(n, 2) })},
}

// observerScale is the analyze-observers cache scale. Its Origin2000
// L2 holds 8 KiB, so the small draws below mostly overflow it and the
// Belady replay has reuse to improve on.
const observerScale = 512

// observerFamilies are the analyze-observers draws: the same kernels
// at footprints from 0.75x to 3x the scaled last-level cache, small
// enough that six machines' worth of observers fit many jobs into a run.
// mm-jki is drawn twice per round for the reason given above.
var observerFamilies = []kernelFamily{
	{"fig7", 1280, 1536, kernels.Fig7Original},
	{"fig8", 1280, 1536, observable(kernels.Fig8Workload)},
	{"conv", 1280, 1536, observable(kernels.Convolution)},
	{"dmxpy", 36, 42, observable(kernels.Dmxpy)},
	{"mm-jki", 16, 18, observable(kernels.MatmulJKI)},
	{"mm-jki", 16, 18, observable(kernels.MatmulJKI)},
	{"sweep3d", 18, 21, observable(func(n int) *ir.Program { return kernels.Sweep3D(n, 2) })},
}

// drawKernels returns perFamily draws of every family, interleaved so
// that any prefix of the pool holds the families in equal shares. Each
// family's sizes are stratified: its range is cut into perFamily equal
// strata and every stratum gives one draw, in a seeded order. The sizes
// a seed draws then spread over the range alike from seed to seed, so
// the pool's work, and with it the percentiles, does not hinge on the
// draw.
func drawKernels(rng *rand.Rand, fams []kernelFamily, perFamily int) []input {
	strata := make([][]int, len(fams))
	for i := range fams {
		strata[i] = rng.Perm(perFamily)
	}
	var pool []input
	for round := 0; round < perFamily; round++ {
		for _, i := range rng.Perm(len(fams)) {
			f := fams[i]
			n := stratified(rng, f.lo, f.hi, strata[i][round], perFamily)
			pool = append(pool, input{name: fmt.Sprintf("%s/n=%d", f.name, n), src: f.build(n).String()})
		}
	}
	return pool
}

// stratified draws an integer from the k-th of the given number of
// equal strata of [lo, hi].
func stratified(rng *rand.Rand, lo, hi, k, strata int) int {
	return lo + int((float64(k)+rng.Float64())*float64(hi-lo+1)/float64(strata))
}

// observable makes a kernel's result checkable: every array is first
// filled from the input stream, and then a checksum of every array is
// printed, one nest per array. Without it most paper kernels compute on
// zeros and print nothing, and an optimizer that broke them would go
// unseen.
func observable(build func(n int) *ir.Program) func(n int) *ir.Program {
	return func(n int) *ir.Program {
		p := kernels.FillArrays(build(n))
		p.DeclareScalar("chk")
		for _, a := range p.Arrays {
			idx := make([]ir.Expr, len(a.Dims))
			for d := range a.Dims {
				idx[d] = ir.V(fmt.Sprintf("c%d", d+1))
			}
			var loop ir.Stmt = ir.Let(ir.S("chk"), ir.AddE(ir.V("chk"), ir.At(a.Name, idx...)))
			for d := range a.Dims {
				loop = ir.Loop(fmt.Sprintf("c%d", d+1), ir.N(0), ir.N(float64(a.Dims[d]-1)), loop)
			}
			body := []ir.Stmt{ir.Let(ir.S("chk"), ir.N(0)), loop, ir.Show(ir.V("chk"))}
			p.Nests = append(p.Nests, &ir.Nest{Label: "Check_" + a.Name, Body: body})
		}
		return p
	}
}

// drawManyNest returns the optimize-manynest pool: per round, the SP
// proxy (22 nests) and three seeded producer/consumer chains, one each
// of 16-31, 32-47 and 48-63 nests, with their array lengths drawn from
// three strata in a seeded order. Stratifying keeps the pool's total
// work the same from seed to seed.
func drawManyNest(rng *rand.Rand, rounds int) []input {
	var pool []input
	for r := 0; r < rounds; r++ {
		n := 6 + rng.IntN(5)
		pool = append(pool, input{name: fmt.Sprintf("sp/n=%d", n), src: observable(kernels.SP)(n).String()})
		for c, s := range rng.Perm(3) {
			pool = append(pool, chain(rng, fmt.Sprintf("chain%d_%d", r, c), 16+16*c+rng.IntN(16), 128+128*s+rng.IntN(128)))
		}
	}
	return pool
}

// chain writes one producer/consumer loop chain of the given number
// of nests over arrays of length n, as .bw text. Nest k
// writes x<k> from one or two recent producers, some at a ±1 offset
// (which blocks fusing the pair without alignment), and every few
// nests a reduction sums the latest array and prints the sum, so the
// chain has results to keep besides its last array.
func chain(rng *rand.Rand, name string, nests, n int) input {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\nconst N = %d\n", name, n)
	for k := 0; k < nests; k++ {
		fmt.Fprintf(&b, "array x%d[N]\n", k)
	}
	b.WriteString("scalar s\n\nloop Init {\n  for i = 0, N - 1 { read x0[i] }\n}\n")
	offsets := []string{"i", "i", "i", "i-1", "i+1"}
	for k := 1; k < nests; k++ {
		src1 := k - 1 - rng.IntN(min(k, 3))
		expr := fmt.Sprintf("0.5 * x%d[%s]", src1, offsets[rng.IntN(len(offsets))])
		if k >= 2 && rng.IntN(2) == 0 {
			src2 := k - 1 - rng.IntN(min(k, 6))
			expr += fmt.Sprintf(" + 0.25 * x%d[%s]", src2, offsets[rng.IntN(len(offsets))])
		}
		fmt.Fprintf(&b, "\nloop P%d {\n  for i = 1, N - 2 { x%d[i] = %s + 0.125 }\n}\n", k, k, expr)
		if k%8 == 0 || k == nests-1 {
			fmt.Fprintf(&b, "\nloop R%d {\n  s = 0\n  for i = 1, N - 2 { s = s + x%d[i] }\n  print s\n}\n", k, k)
		}
	}
	return input{name: fmt.Sprintf("%s/nests=%d/n=%d", name, nests, n), src: b.String()}
}

// request is one serve-mix request: its endpoint, JSON body, and the
// labels the per-layer split groups it by.
type request struct {
	path  string // "/v1/analyze" or "/v1/optimize"
	body  []byte
	hot   bool   // a repeated key, so the result cache answers it
	key   string // identifies repeats of one hot request
	round int    // a cold request's round, counted from 1
}

// serveKernels are the kernels serve-mix requests name, with the size
// range each request draws from.
var serveKernels = []struct {
	name   string
	lo, hi int
	build  func(n int) *ir.Program
}{
	{"fig7", 20480, 24576, kernels.Fig7Original},
	{"sec21", 20480, 24576, kernels.Sec21Pair},
	{"conv", 20480, 24576, kernels.Convolution},
	{"dmxpy", 112, 128, kernels.Dmxpy},
	{"matmul", 26, 29, kernels.MatmulJKI},
	{"sweep3d", 36, 42, func(n int) *ir.Program { return kernels.Sweep3D(n, 6) }},
}

// mixGen draws the serve-mix request stream. Every block of five
// requests holds two hot ones (one of a few built-in kernel requests,
// repeated) and three cold ones (program source under a name never
// sent before, so no cache entry can answer it), in a seeded order.
// Cold requests come in rounds that hold every kernel in equal shares,
// each kernel as six plain analyses, one analysis asking for a
// profile, an MRC or a Belady replay, and three optimizations with
// differential verification: 70% /v1/analyze, 30% /v1/optimize. A
// kernel's sizes in a round are stratified over its range, as in
// drawKernels, separately for its plain analyses and its optimizations.
// Drawing by rounds rather than independently keeps the mix of cheap
// and costly requests the same from seed to seed, so the latency
// percentiles move with the program and not with the draw. The hot
// share is kept off one half so that the median latency falls inside
// the cold class rather than on the boundary between a 0.3 ms hit and
// a 30 ms miss.
type mixGen struct {
	rng         *rand.Rand
	hot         []request
	block, cold []int   // pending slot kinds and cold-round entries
	strata      [][]int // per kernel and slot of the round, its size stratum among its kind
	hotNext     int
	sent        int // cold requests drawn, which names each one apart
	round       int // cold rounds begun
}

const (
	hotKeys       = 4
	hotPerBlock   = 2
	blockSize     = 5
	slotsPerRound = 10 // per kernel: 6 analyze, 1 flagged analyze, 3 optimize
	flaggedSlot   = 6  // slots below are plain analyses, slots above optimizations
)

var flags = []string{"profile", "mrc", "belady"}

func newMixGen(seed uint64) *mixGen {
	g := &mixGen{rng: rand.New(rand.NewPCG(seed, 0x5e12e))}
	for i, k := range g.rng.Perm(len(serveKernels))[:hotKeys] {
		kern := serveKernels[k]
		body := map[string]any{"kernel": kern.name, "n": kern.lo + g.rng.IntN(kern.hi-kern.lo+1)}
		g.hot = append(g.hot, g.shape(body, i == 0, ""))
		g.hot[i].hot = true
	}
	return g
}

// next returns the stream's next request.
func (g *mixGen) next() request {
	if len(g.block) == 0 {
		g.block = g.rng.Perm(blockSize)
	}
	slot := g.block[0]
	g.block = g.block[1:]
	if slot < hotPerBlock {
		if g.hotNext%hotKeys == 0 {
			g.rng.Shuffle(hotKeys, func(i, j int) { g.hot[i], g.hot[j] = g.hot[j], g.hot[i] })
		}
		r := g.hot[g.hotNext%hotKeys]
		g.hotNext++
		return r
	}
	return g.fresh()
}

// fresh returns the next cold request of the current round.
func (g *mixGen) fresh() request {
	if len(g.cold) == 0 {
		g.round++
		g.cold = g.rng.Perm(len(serveKernels) * slotsPerRound)
		g.strata = g.strata[:0]
		for range serveKernels {
			st := append(g.rng.Perm(flaggedSlot), 0)
			g.strata = append(g.strata, append(st, g.rng.Perm(slotsPerRound-flaggedSlot-1)...))
		}
	}
	e := g.cold[0]
	g.cold = g.cold[1:]
	k, slot := e/slotsPerRound, e%slotsPerRound
	kern := serveKernels[k]
	ofKind := slotsPerRound - flaggedSlot - 1 // slots of this slot's kind in the round
	switch {
	case slot < flaggedSlot:
		ofKind = flaggedSlot
	case slot == flaggedSlot:
		ofKind = 1
	}
	p := kern.build(stratified(g.rng, kern.lo, kern.hi, g.strata[k][slot], ofKind))
	g.sent++
	p.Name = fmt.Sprintf("%s_%d", p.Name, g.sent)
	flag := ""
	if slot == flaggedSlot {
		flag = flags[g.rng.IntN(len(flags))]
	}
	r := g.shape(map[string]any{"program": p.String()}, slot > flaggedSlot, flag)
	r.round = g.round
	return r
}

// shape completes a request body naming its program: the machine, and
// what to run on it.
func (g *mixGen) shape(body map[string]any, optimize bool, flag string) request {
	body["machine"], body["scale"] = "origin2000", cliScale
	path := "/v1/analyze"
	switch {
	case optimize:
		path = "/v1/optimize"
		body["verify"] = "differential"
	case flag != "":
		body[flag] = true
	}
	return request{path: path, body: mustJSON(body), key: path + " " + string(mustJSON(body))}
}

// arrivals returns Poisson arrival offsets at rate per second over d.
func arrivals(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	var t float64
	for {
		t += -math.Log(1-rng.Float64()) / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

package main

import (
	"sync"
	"time"
)

// The machines this benchmark runs on are shared: other tenants' load
// changes the speed of the cores, their caches and their memory from one
// second to the next, often by a fifth, and process CPU time moves with
// wall time because most of the change is not stolen time but slower
// cycles. The program under test cannot be told apart from the host by
// timing it alone, so every timed phase is interleaved with a fixed
// reference loop that lives in this file and calls nothing of the
// repository, and each timing is reported at reference speed: multiplied
// by refLoopMS over the loop's median time in the same phase. A change
// to the program moves the timings; a change in the host's speed moves
// the program and the loop alike and cancels. The raw wall-clock figures
// and the loop's median are printed beside them.

// refLoopMS is the reference loop's time at reference speed. Timings
// read as on a host that runs the loop in exactly this time.
const refLoopMS = 1.0

// refLoop is a reference loop: random updates, integer and
// floating-point work over buf, allocating nothing. Its working set
// matches the kind of work it stands in for, because the host's
// changes reach a core's private caches and the shared cache unequally.
// When the host sped up, the CLI jobs took 0.81-0.83 of their time
// before, a loop over 256 KiB 0.81 of its time and a loop over 4 MiB
// 0.73; the allocation-heavy service, when the host slowed, followed
// the 4 MiB loop and slowed twice as much as the 256 KiB one.
type refLoop struct {
	buf   []uint64 // a power of two long
	steps int      // random updates per pass, about 1 ms of work
}

var refBuf = make([]uint64, 1<<19) // 4 MiB

var (
	// cliLoop stands in for the CLI jobs: interpreter, simulator and
	// optimizer work over small data, in a core's private caches.
	cliLoop = refLoop{buf: refBuf[:1<<15], steps: 1 << 18} // 256 KiB
	// serveLoop stands in for the service, which allocates megabytes per
	// request and works out of the shared cache and memory.
	serveLoop = refLoop{buf: refBuf, steps: 1 << 17} // 4 MiB
)

// loopFor returns the reference loop of a workload.
func loopFor(workload string) refLoop {
	if workload == "serve-mix" {
		return serveLoop
	}
	return cliLoop
}

// refSink keeps the compiler from dropping the loop.
var refSink uint64

// run runs the loop and returns how long it took. An untimed pass first
// brings buf back into the caches, so that the timed pass does not
// depend on how much of it the program's own work just evicted, which
// would make the loop's time, and every timing divided by it, depend on
// the program.
func (l refLoop) run() time.Duration {
	l.pass()
	start := time.Now()
	l.pass()
	return time.Since(start)
}

func (l refLoop) pass() {
	x := uint64(88172645463325252)
	f := 1.0
	mask := uint64(len(l.buf) - 1)
	for i := range l.steps {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		l.buf[x&mask] += x
		f = f*1.0000001 + float64(l.buf[uint64(i)&mask]&7)
	}
	refSink += x + uint64(f)
}

// speedMeter collects reference-loop times over one timed phase. It is
// safe for concurrent use.
type speedMeter struct {
	loop refLoop
	mu   sync.Mutex
	cal  []float64 // ms
}

// sample runs the reference loop once, records its time and returns it.
func (m *speedMeter) sample() time.Duration {
	d := m.loop.run()
	m.mu.Lock()
	m.cal = append(m.cal, ms(d))
	m.mu.Unlock()
	return d
}

// loopMS is the reference loop's median time in ms, or 0 without samples.
func (m *speedMeter) loopMS() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return median(m.cal)
}

// factor converts a time measured in the phase to reference speed. It is
// 1 when the phase took no samples.
func (m *speedMeter) factor() float64 {
	if l := m.loopMS(); l > 0 {
		return refLoopMS / l
	}
	return 1
}

package main

import (
	"sync/atomic"
	"time"

	"fiat/internal/simclock"
)

// benchClock is the live clock handed to the proxy and the durable manager.
// Every read pays for one wall-clock read, exactly as simclock.RealClock
// does, but returns the workload's virtual instant: verdicts then depend
// only on the seed, so the decision digest of a traced and an untraced run
// can be compared, while the proxy still pays a real clock's cost per read.
type benchClock struct {
	virt atomic.Int64 // unix nanos of the current virtual instant
}

func newBenchClock() *benchClock {
	c := &benchClock{}
	c.virt.Store(simclock.Epoch.UnixNano())
	return c
}

func (c *benchClock) Now() time.Time {
	_ = time.Now() // a call into the runtime; the compiler keeps it
	return time.Unix(0, c.virt.Load()).UTC()
}

// wallSink keeps the timed loops in clockCostNs observable to the compiler.
var wallSink time.Time

// set moves the virtual instant; it never goes backwards.
func (c *benchClock) set(t time.Time) {
	if n := t.UnixNano(); n > c.virt.Load() {
		c.virt.Store(n)
	}
}

// clockCostNs measures the mean cost of one Now call on both clocks, so the
// run can show that the benchmark clock costs what the production one does.
func clockCostNs() (bench, real float64) {
	const n = 200000
	bc := newBenchClock()
	var rc simclock.RealClock
	var sink time.Time
	start := time.Now()
	for i := 0; i < n; i++ {
		sink = bc.Now()
	}
	bench = float64(time.Since(start).Nanoseconds()) / n
	start = time.Now()
	for i := 0; i < n; i++ {
		sink = rc.Now()
	}
	real = float64(time.Since(start).Nanoseconds()) / n
	wallSink = sink
	return bench, real
}

// Package sim provides the virtual-time substrate for the simulated cluster.
//
// Every rank in the simulated MPI runtime carries a Clock measuring virtual
// seconds. Compute work, message transfers, collective operations, file
// system flushes, and job launch overheads all advance virtual time according
// to the cost model in Machine. Using virtual time keeps experiments
// deterministic and lets a laptop reproduce the *shape* of results measured
// on a 100-node Cray XC40 without wall-clock sleeps.
package sim

import "fmt"

// Clock is a single rank's virtual clock, in seconds. Clocks are not safe for
// concurrent use; each rank goroutine owns exactly one.
type Clock struct {
	now float64
}

// NewClockAt returns a clock set to t seconds.
func NewClockAt(t float64) *Clock { return &Clock{now: t} }

// Now reports the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Advance moves the clock forward by d seconds. Negative d panics: virtual
// time never runs backwards.
func (c *Clock) Advance(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative clock advance %v", d))
	}
	c.now += d
}

// AdvanceTo moves the clock forward to t if t is later than the current
// time; otherwise it is a no-op. It returns the amount of time waited.
func (c *Clock) AdvanceTo(t float64) float64 {
	if t <= c.now {
		return 0
	}
	d := t - c.now
	c.now = t
	return d
}

// Set forces the clock to t, forwards or backwards. It is intended for the
// launcher when re-initializing ranks across relaunches; application code
// should use Advance/AdvanceTo.
func (c *Clock) Set(t float64) { c.now = t }

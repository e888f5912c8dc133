package energy

import "fmt"

// Capacitor is the energy store of one sensor node. It charges from the
// harvester, leaks slowly, and supplies the compute/radio/sensing loads.
// The zero value is unusable; use NewCapacitor.
type Capacitor struct {
	// CapacityJ is the maximum stored energy in joules.
	CapacityJ float64
	// LeakW is the constant leakage power in watts.
	LeakW float64
	// MinOperatingJ is the brown-out threshold: loads cannot draw once the
	// store falls to this level (the regulator cuts out), modelling the
	// power emergencies that motivate non-volatile processors.
	MinOperatingJ float64

	stored float64

	// Telemetry.
	harvested float64
	consumed  float64
	wastedSat float64
}

// NewCapacitor returns a store with the given capacity, leakage and
// brown-out threshold, starting at initialJ stored energy.
func NewCapacitor(capacityJ, leakW, minOperatingJ, initialJ float64) *Capacitor {
	if capacityJ <= 0 || minOperatingJ < 0 || minOperatingJ >= capacityJ {
		panic(fmt.Sprintf("energy: invalid capacitor capacity=%v min=%v", capacityJ, minOperatingJ))
	}
	if initialJ < 0 {
		initialJ = 0
	}
	if initialJ > capacityJ {
		initialJ = capacityJ
	}
	return &Capacitor{CapacityJ: capacityJ, LeakW: leakW, MinOperatingJ: minOperatingJ, stored: initialJ}
}

// Stored returns the current stored energy in joules.
func (c *Capacitor) Stored() float64 { return c.stored }

// Available returns the energy above the brown-out threshold that loads may
// actually draw.
func (c *Capacitor) Available() float64 {
	a := c.stored - c.MinOperatingJ
	if a < 0 {
		return 0
	}
	return a
}

// Harvest charges the store with power p (watts) for dt seconds, applying
// leakage for the same interval. Energy above capacity is wasted
// (saturation), which is what makes always-waiting strategies suboptimal
// and bounded ER-r widths best (the paper's RR-12 discussion).
func (c *Capacitor) Harvest(p, dt float64) {
	if dt <= 0 {
		return
	}
	in := p * dt
	c.harvested += in
	c.stored += in
	leak := c.LeakW * dt
	c.stored -= leak
	if c.stored < 0 {
		c.stored = 0
	}
	if c.stored > c.CapacityJ {
		c.wastedSat += c.stored - c.CapacityJ
		c.stored = c.CapacityJ
	}
}

// Draw attempts to consume e joules for a load. It succeeds only if the
// store stays at or above the brown-out threshold; on failure nothing is
// consumed and Draw reports false.
func (c *Capacitor) Draw(e float64) bool {
	if e < 0 {
		panic(fmt.Sprintf("energy: negative draw %v", e))
	}
	if c.stored-e < c.MinOperatingJ {
		return false
	}
	c.stored -= e
	c.consumed += e
	return true
}

// DrawUpTo consumes as much of e joules as the brown-out threshold allows
// and returns the amount actually drawn. This is how a compute load makes
// partial progress through a sub-tick that ends in a power emergency.
func (c *Capacitor) DrawUpTo(e float64) float64 {
	if e <= 0 {
		return 0
	}
	avail := c.Available()
	if e > avail {
		e = avail
	}
	c.stored -= e
	c.consumed += e
	return e
}

// Drain empties the store without crediting any load — a forced brownout
// (fault injection): the energy is lost, not consumed. It returns the
// energy that was stored. Cumulative telemetry is preserved.
func (c *Capacitor) Drain() float64 {
	lost := c.stored
	c.stored = 0
	return lost
}

// Stats returns cumulative telemetry: total harvested, total consumed and
// total wasted-to-saturation energy in joules.
func (c *Capacitor) Stats() (harvested, consumed, wastedSaturation float64) {
	return c.harvested, c.consumed, c.wastedSat
}

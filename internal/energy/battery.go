package energy

import "fmt"

// Battery is a finite reserve that assists the harvester in hybrid nodes
// (the paper's Discussion: "battery-powered or hybrid (a combination of
// battery powered and EH) systems"). Unlike the capacitor it is sized in
// joules-of-chemistry: hundreds of joules rather than hundreds of
// microjoules, with a discharge-power limit and self-discharge.
type Battery struct {
	// CapacityJ is the full charge in joules.
	CapacityJ float64
	// MaxPowerW limits instantaneous discharge.
	MaxPowerW float64
	// SelfDischargeW drains continuously (shelf loss).
	SelfDischargeW float64

	stored float64
	drawn  float64
}

// NewBattery returns a full battery.
func NewBattery(capacityJ, maxPowerW float64) *Battery {
	if capacityJ <= 0 || maxPowerW <= 0 {
		panic(fmt.Sprintf("energy: invalid battery capacity=%v maxPower=%v", capacityJ, maxPowerW))
	}
	return &Battery{CapacityJ: capacityJ, MaxPowerW: maxPowerW, stored: capacityJ}
}

// Stored returns the remaining charge in joules.
func (b *Battery) Stored() float64 { return b.stored }

// Drawn returns the cumulative energy supplied to loads.
func (b *Battery) Drawn() float64 { return b.drawn }

// Tick applies self-discharge over dt seconds.
func (b *Battery) Tick(dt float64) {
	if dt <= 0 || b.SelfDischargeW <= 0 {
		return
	}
	b.stored -= b.SelfDischargeW * dt
	if b.stored < 0 {
		b.stored = 0
	}
}

// Supply draws up to e joules over dt seconds, bounded by the discharge
// power limit and the remaining charge, returning the energy delivered.
func (b *Battery) Supply(e, dt float64) float64 {
	if e <= 0 || dt <= 0 {
		return 0
	}
	if limit := b.MaxPowerW * dt; e > limit {
		e = limit
	}
	if e > b.stored {
		e = b.stored
	}
	b.stored -= e
	b.drawn += e
	return e
}

// Package fleettest builds small deterministic serving models for tests:
// the full Model/Registry/Manager machinery over untrained (but
// deterministically initialised) nets and a synthetic accuracy table, so
// serving tests never pay for the minutes-long experiments.BuildSystem.
package fleettest

import (
	"math/rand"

	"origin/internal/dnn"
	"origin/internal/ensemble"
	"origin/internal/experiments"
	"origin/internal/fleet"
	"origin/internal/schedule"
	"origin/internal/synth"
)

// NewModel returns a tiny deterministic model for the named profile
// ("MHEALTH" or "PAMAP2"). Two calls with the same name produce
// behaviourally identical models (same net weights, same tables), which is
// what lets replay tests rebuild "the same" model on both sides.
func NewModel(profileName string) (*fleet.Model, error) {
	p, err := synth.ProfileByName(profileName)
	if err != nil {
		return nil, err
	}
	classes := p.NumClasses()
	nets := make([]*dnn.Network, synth.NumLocations)
	acc := make([][]float64, synth.NumLocations)
	m := ensemble.NewMatrix(synth.NumLocations, classes)
	for loc := 0; loc < synth.NumLocations; loc++ {
		rng := rand.New(rand.NewSource(42 + int64(loc)))
		nets[loc] = dnn.NewShallowHARNetwork(rng, dnn.DefaultHARConfig(synth.Channels, experiments.Window, classes))
		acc[loc] = make([]float64, classes)
		for c := 0; c < classes; c++ {
			// Unequal, deterministic expertise so rank tables and weighted
			// voting have structure to exploit.
			acc[loc][c] = 0.4 + 0.1*float64((loc+c)%3)
			m.Set(loc, c, 0.01+0.005*float64((loc+2*c)%4))
		}
	}
	sys := &experiments.System{
		Profile:  p,
		NetsB1:   nets,
		NetsB2:   nets,
		Matrix:   m,
		AccTable: acc,
		Ranks:    schedule.NewRankTable(acc),
	}
	return fleet.NewModel(profileName, sys), nil
}

// NewRegistry returns a registry whose builder serves tiny deterministic
// models instead of trained ones.
func NewRegistry() *fleet.Registry {
	return fleet.NewRegistry(func(profile string) (*fleet.Model, error) {
		return NewModel(profile)
	})
}

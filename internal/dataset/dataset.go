// Package dataset assembles labelled window sets from the synthetic IMU
// generator for training and evaluating the per-sensor DNNs, and provides
// stratified splits. It is the bridge between internal/synth (signal
// synthesis) and internal/dnn (learning).
package dataset

import (
	"fmt"
	"math/rand"

	"origin/internal/dnn"
	"origin/internal/synth"
)

// Window is the number of IMU samples per classification window used
// throughout the reproduction: 64 samples at 50 Hz ≈ 1.28 s, in the range
// common for CNN-based HAR (Ha & Choi 2016 use comparable windows).
const Window = 64

// Config describes a labelled window set to synthesise.
type Config struct {
	// Profile selects the dataset (MHEALTH or PAMAP2 signatures/classes).
	Profile *synth.Profile
	// User supplies subject-specific gait parameters.
	User *synth.User
	// Users, if non-empty, overrides User with a training population:
	// windows are drawn round-robin across the subjects, the standard
	// multi-subject protocol of HAR datasets (MHEALTH has 10 subjects).
	Users []*synth.User
	// Location is the body placement the windows are sensed at.
	Location synth.Location
	// PerClass is the number of windows per activity class.
	PerClass int
	// Window is the samples per window; 0 means the package default.
	Window int
	// Seed drives synthesis determinism.
	Seed int64
}

// Make synthesises a balanced labelled sample set per cfg: PerClass windows
// of every activity, interleaved by class so truncated prefixes stay
// balanced.
func Make(cfg Config) []dnn.Sample {
	users := cfg.Users
	if len(users) == 0 {
		if cfg.User == nil {
			panic("dataset: Config requires User or Users")
		}
		users = []*synth.User{cfg.User}
	}
	if cfg.Profile == nil {
		panic("dataset: Config requires Profile")
	}
	if cfg.PerClass <= 0 {
		panic(fmt.Sprintf("dataset: invalid PerClass %d", cfg.PerClass))
	}
	w := cfg.Window
	if w == 0 {
		w = Window
	}
	gens := make([]*synth.Generator, len(users))
	for i, u := range users {
		gens[i] = synth.NewGenerator(cfg.Profile, u, w, cfg.Seed+int64(i)*31)
	}
	classes := cfg.Profile.NumClasses()
	samples := make([]dnn.Sample, 0, classes*cfg.PerClass)
	for i := 0; i < cfg.PerClass; i++ {
		g := gens[i%len(gens)]
		for c := 0; c < classes; c++ {
			samples = append(samples, dnn.Sample{X: g.WindowFor(c, cfg.Location), Label: c})
		}
	}
	return samples
}

// Split partitions samples into train and test sets with the given train
// fraction, shuffling deterministically with seed. The split is stratified:
// each class contributes the same fraction to both sides.
func Split(samples []dnn.Sample, trainFrac float64, seed int64) (train, test []dnn.Sample) {
	if trainFrac <= 0 || trainFrac >= 1 {
		panic(fmt.Sprintf("dataset: invalid train fraction %v", trainFrac))
	}
	byClass := map[int][]dnn.Sample{}
	for _, s := range samples {
		byClass[s.Label] = append(byClass[s.Label], s)
	}
	rng := rand.New(rand.NewSource(seed))
	// Iterate classes in ascending order for determinism.
	maxClass := -1
	for c := range byClass {
		if c > maxClass {
			maxClass = c
		}
	}
	for c := 0; c <= maxClass; c++ {
		group := byClass[c]
		if len(group) == 0 {
			continue
		}
		rng.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
		k := int(float64(len(group)) * trainFrac)
		train = append(train, group[:k]...)
		test = append(test, group[k:]...)
	}
	rng.Shuffle(len(train), func(i, j int) { train[i], train[j] = train[j], train[i] })
	rng.Shuffle(len(test), func(i, j int) { test[i], test[j] = test[j], test[i] })
	return train, test
}

// ClassCounts tallies how many samples carry each label.
func ClassCounts(samples []dnn.Sample, classes int) []int {
	counts := make([]int, classes)
	for _, s := range samples {
		counts[s.Label]++
	}
	return counts
}

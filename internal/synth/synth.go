// Package synth generates synthetic multi-sensor IMU data for human
// activity recognition, substituting for the MHEALTH and PAMAP2 recordings
// used by the Origin paper (neither dataset is redistributable or available
// offline).
//
// The generator is parametric and deliberately structured so that the three
// body locations (chest, left ankle, right wrist) are *unequal* weak
// classifiers whose relative strength depends on the activity — the property
// every Origin mechanism (activity-aware scheduling, recall, the confidence
// matrix) exploits. Each (activity, location) pair has a harmonic motion
// signature: a fundamental frequency, per-channel amplitude pattern over the
// six IMU channels (3-axis accelerometer + 3-axis gyroscope), harmonic
// content, and a DC posture offset. Pairs that are biomechanically similar
// at a location (e.g. walking vs. climbing at the ankle, walking vs. jogging
// at the chest) share most of their signature, producing realistic
// confusions. Per-user gait parameters perturb frequency, amplitude, phase
// and posture so unseen users degrade accuracy until the adaptive ensemble
// personalises (the paper's Fig. 6).
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"origin/internal/tensor"
)

// Channels is the number of IMU channels per sensor: 3-axis accelerometer
// followed by 3-axis gyroscope.
const Channels = 6

// SampleRate is the IMU sampling rate in Hz, matching MHEALTH's 50 Hz.
const SampleRate = 50.0

// Location identifies where on the body a sensor is worn. The three
// locations match the paper's deployment.
type Location int

// Body locations, in the paper's enumeration order.
const (
	Chest Location = iota
	LeftAnkle
	RightWrist

	// NumLocations is the number of sensor placements.
	NumLocations = 3
)

// String returns the human-readable location name used in the paper.
func (l Location) String() string {
	switch l {
	case Chest:
		return "Chest"
	case LeftAnkle:
		return "Left Ankle"
	case RightWrist:
		return "Right Wrist"
	default:
		return fmt.Sprintf("Location(%d)", int(l))
	}
}

// Locations lists all sensor placements in order.
func Locations() []Location { return []Location{Chest, LeftAnkle, RightWrist} }

// signature is the harmonic motion model of one (activity, location) pair.
type signature struct {
	// freq is the fundamental frequency in Hz.
	freq float64
	// amp holds per-channel amplitudes of the fundamental.
	amp [Channels]float64
	// second holds per-channel amplitudes of the second harmonic.
	second [Channels]float64
	// dc is the per-channel posture offset (gravity projection, mount bias).
	dc [Channels]float64
	// burst, if positive, gates the signal with a rectified duty pattern of
	// this duty fraction, modelling impulsive activities such as jumping.
	burst float64
	// noise is the per-channel sensor+motion noise standard deviation.
	noise float64
}

// Profile is a dataset profile: an activity label set plus a full table of
// per-(activity, location) signatures. MHEALTHProfile and PAMAP2Profile mirror
// the two datasets the paper evaluates on.
type Profile struct {
	// Name identifies the profile ("MHEALTH" or "PAMAP2").
	Name string
	// Activities holds the class labels, index = class id.
	Activities []string

	sigs [][]signature // [activity][location]
}

// NumClasses returns the number of activity classes.
func (p *Profile) NumClasses() int { return len(p.Activities) }

// ActivityIndex returns the class id for a label, or -1 if unknown.
func (p *Profile) ActivityIndex(name string) int {
	for i, a := range p.Activities {
		if a == name {
			return i
		}
	}
	return -1
}

// baseSignatures builds the master signature table for the six MHEALTH
// activities. The confusion structure is deliberate:
//
//   - Left ankle: crisp, high-amplitude leg dynamics — best overall sensor
//     (walking/running/jogging/cycling all well separated), but walking vs
//     climbing nearly coincide (stair gait ≈ level gait at the ankle).
//   - Chest: low-amplitude torso motion — weakest overall, but climbing is
//     *distinct* at the chest (torso pitch + vertical heave), making it the
//     top-ranked sensor for climbing, exactly the inversion §III-C discusses.
//   - Right wrist: arm-swing dynamics — walking/jogging/running overlap
//     heavily (similar arm swing), but jumping (bilateral arm drive) and
//     cycling (grip on handlebar, near-static wrist) are distinctive.
func baseSignatures() map[string]map[Location]signature {
	// Channel layout: [ax ay az gx gy gz]; az carries gravity/heave, ax
	// forward motion, ay lateral sway; gx/gy/gz angular rates.
	return map[string]map[Location]signature{
		"Walking": {
			Chest:      {freq: 1.9, amp: [Channels]float64{0.50, 0.28, 0.70, 0.24, 0.20, 0.13}, second: [Channels]float64{0.18, 0.08, 0.25, 0.05, 0.05, 0.03}, dc: [Channels]float64{0.05, 0, 0.98, 0, 0, 0}, noise: 0.72},
			LeftAnkle:  {freq: 0.9, amp: [Channels]float64{1.60, 0.50, 1.90, 1.10, 0.40, 0.60}, second: [Channels]float64{0.70, 0.15, 0.90, 0.40, 0.10, 0.20}, dc: [Channels]float64{0.10, 0, 0.95, 0, 0, 0}, noise: 0.60},
			RightWrist: {freq: 0.9, amp: [Channels]float64{0.80, 0.55, 0.50, 0.70, 0.55, 0.35}, second: [Channels]float64{0.20, 0.12, 0.10, 0.15, 0.10, 0.08}, dc: [Channels]float64{0.30, 0.10, 0.85, 0, 0, 0}, noise: 0.96},
		},
		"Climbing": {
			// Chest: pitch offset + heave → the chest's one distinctive class.
			Chest: {freq: 1.5, amp: [Channels]float64{0.60, 0.32, 1.05, 0.55, 0.30, 0.15}, second: [Channels]float64{0.32, 0.10, 0.58, 0.22, 0.08, 0.04}, dc: [Channels]float64{0.52, 0.05, 0.86, 0.18, 0, 0}, noise: 0.54},
			// Ankle: nearly the walking signature (slightly slower, higher lift).
			LeftAnkle: {freq: 0.78, amp: [Channels]float64{1.48, 0.55, 2.32, 1.26, 0.45, 0.55}, second: [Channels]float64{0.63, 0.18, 1.18, 0.45, 0.12, 0.18}, dc: [Channels]float64{0.17, 0, 0.92, 0, 0, 0}, noise: 0.62},
			// Wrist: holding the rail — close to the walking wrist signature.
			RightWrist: {freq: 0.80, amp: [Channels]float64{0.74, 0.58, 0.56, 0.64, 0.52, 0.32}, second: [Channels]float64{0.18, 0.14, 0.12, 0.13, 0.09, 0.07}, dc: [Channels]float64{0.33, 0.11, 0.83, 0.05, 0, 0}, noise: 0.96},
		},
		"Cycling": {
			// Chest: seated, low amplitude, slight forward lean.
			Chest: {freq: 1.2, amp: [Channels]float64{0.20, 0.13, 0.24, 0.11, 0.09, 0.06}, second: [Channels]float64{0.05, 0.03, 0.06, 0.02, 0.02, 0.01}, dc: [Channels]float64{0.38, 0, 0.84, 0, 0, 0}, noise: 0.58},
			// Ankle: smooth circular pedalling — large, sinusoidal, low harmonics.
			LeftAnkle: {freq: 1.2, amp: [Channels]float64{1.30, 0.35, 1.25, 1.60, 0.50, 0.90}, second: [Channels]float64{0.15, 0.05, 0.14, 0.20, 0.06, 0.10}, dc: [Channels]float64{0.30, 0, 0.70, 0, 0, 0}, noise: 0.62},
			// Wrist: gripping handlebar — near static with road vibration.
			RightWrist: {freq: 1.2, amp: [Channels]float64{0.14, 0.11, 0.14, 0.08, 0.07, 0.05}, second: [Channels]float64{0.03, 0.02, 0.03, 0.01, 0.01, 0.01}, dc: [Channels]float64{0.48, 0.16, 0.74, 0, 0, 0}, noise: 0.62},
		},
		"Running": {
			Chest:      {freq: 2.6, amp: [Channels]float64{0.88, 0.45, 1.22, 0.45, 0.36, 0.22}, second: [Channels]float64{0.38, 0.16, 0.58, 0.16, 0.11, 0.07}, dc: [Channels]float64{0.12, 0, 0.95, 0, 0, 0}, noise: 0.74},
			LeftAnkle:  {freq: 1.45, amp: [Channels]float64{3.30, 0.90, 3.90, 2.30, 0.80, 1.20}, second: [Channels]float64{1.50, 0.30, 1.90, 0.90, 0.25, 0.45}, dc: [Channels]float64{0.15, 0, 0.90, 0, 0, 0}, noise: 0.84},
			RightWrist: {freq: 1.45, amp: [Channels]float64{1.25, 0.85, 0.80, 1.05, 0.85, 0.55}, second: [Channels]float64{0.42, 0.24, 0.22, 0.32, 0.22, 0.14}, dc: [Channels]float64{0.25, 0.08, 0.80, 0, 0, 0}, noise: 1.02},
		},
		"Jogging": {
			// Between walking and running everywhere; heavily confusable with
			// running at the chest and wrist (same gait, scaled), more distinct
			// at the ankle where foot-strike dynamics differ.
			Chest:      {freq: 2.3, amp: [Channels]float64{0.72, 0.38, 1.00, 0.37, 0.29, 0.18}, second: [Channels]float64{0.31, 0.13, 0.48, 0.13, 0.09, 0.06}, dc: [Channels]float64{0.10, 0, 0.96, 0, 0, 0}, noise: 0.74},
			LeftAnkle:  {freq: 1.18, amp: [Channels]float64{2.40, 0.70, 2.85, 1.68, 0.62, 0.92}, second: [Channels]float64{1.02, 0.22, 1.32, 0.61, 0.18, 0.32}, dc: [Channels]float64{0.13, 0, 0.92, 0, 0, 0}, noise: 0.74},
			RightWrist: {freq: 1.18, amp: [Channels]float64{1.05, 0.72, 0.68, 0.90, 0.72, 0.46}, second: [Channels]float64{0.34, 0.20, 0.18, 0.26, 0.18, 0.11}, dc: [Channels]float64{0.26, 0.08, 0.81, 0, 0, 0}, noise: 1.02},
		},
		"Jumping": {
			// Impulsive vertical bursts at every location; the wrist's
			// bilateral arm drive makes it the most distinctive there.
			Chest:      {freq: 2.1, amp: [Channels]float64{0.60, 0.40, 2.00, 0.35, 0.35, 0.20}, second: [Channels]float64{0.25, 0.15, 0.95, 0.12, 0.12, 0.06}, dc: [Channels]float64{0.05, 0, 0.92, 0, 0, 0}, burst: 0.45, noise: 0.74},
			LeftAnkle:  {freq: 2.1, amp: [Channels]float64{1.80, 0.80, 4.20, 1.20, 0.70, 0.80}, second: [Channels]float64{0.80, 0.28, 2.00, 0.45, 0.22, 0.30}, dc: [Channels]float64{0.08, 0, 0.90, 0, 0, 0}, burst: 0.45, noise: 0.79},
			RightWrist: {freq: 2.1, amp: [Channels]float64{1.90, 1.60, 2.60, 1.50, 1.40, 0.90}, second: [Channels]float64{0.70, 0.55, 1.20, 0.50, 0.45, 0.28}, dc: [Channels]float64{0.15, 0.05, 0.85, 0, 0, 0}, burst: 0.45, noise: 0.82},
		},
	}
}

func buildProfile(name string, activities []string) *Profile {
	base := baseSignatures()
	p := &Profile{Name: name, Activities: activities}
	p.sigs = make([][]signature, len(activities))
	for i, act := range activities {
		locs, ok := base[act]
		if !ok {
			panic(fmt.Sprintf("synth: no signature table for activity %q", act))
		}
		p.sigs[i] = []signature{locs[Chest], locs[LeftAnkle], locs[RightWrist]}
	}
	return p
}

// MHEALTHProfile returns the 6-activity profile matching the paper's
// MHEALTH evaluation set (Fig. 2, Fig. 4, Fig. 5a, Table I).
func MHEALTHProfile() *Profile {
	return buildProfile("MHEALTH", []string{
		"Walking", "Climbing", "Cycling", "Running", "Jogging", "Jumping",
	})
}

// PAMAP2Profile returns the 5-activity profile matching the paper's PAMAP2
// evaluation set (Fig. 5b — note the paper's PAMAP2 figure omits jogging).
// The PAMAP2 variant uses slightly noisier signatures, reflecting the
// harder, longer-duration recordings of that dataset.
func PAMAP2Profile() *Profile {
	p := buildProfile("PAMAP2", []string{
		"Walking", "Climbing", "Cycling", "Running", "Jumping",
	})
	for ai := range p.sigs {
		for li := range p.sigs[ai] {
			p.sigs[ai][li].noise *= 1.15
		}
	}
	return p
}

// ProfileNames lists the dataset profiles ProfileByName resolves, in a
// fixed order suitable for help text.
func ProfileNames() []string { return []string{"MHEALTH", "PAMAP2"} }

// ProfileByName resolves a dataset profile by its exact name.
func ProfileByName(name string) (*Profile, error) {
	switch name {
	case "MHEALTH":
		return MHEALTHProfile(), nil
	case "PAMAP2":
		return PAMAP2Profile(), nil
	}
	return nil, fmt.Errorf("unknown profile %q (want one of %v)", name, ProfileNames())
}

// User holds per-subject gait parameters. Users perturb every signature
// multiplicatively, so two users performing the same activity produce
// systematically different windows — the inter-subject variation the
// adaptive confidence matrix personalises away.
type User struct {
	// ID is the seed the user was derived from.
	ID int64

	freqScale float64
	ampScale  [Channels]float64
	phase     [Channels]float64
	dcShift   [Channels]float64

	// mountScale and mountNoise model how the user wears each sensor: a
	// loose strap attenuates motion coupling and adds rubbing noise. This
	// per-(user, location) asymmetry is the classic inter-subject effect in
	// wearable HAR and the one the adaptive confidence matrix can actually
	// repair — by discovering that one sensor's confidence has collapsed
	// for this user and shifting ensemble weight to the others (Fig. 6).
	mountScale [NumLocations]float64
	mountNoise [NumLocations]float64
}

// NewUser derives a user from an id. id 0 is the canonical "training
// population average" user (no perturbation); other ids perturb frequency by
// up to ±8%, per-channel amplitude by up to ±25%, phase freely, and posture
// offsets by up to ±0.15.
func NewUser(id int64) *User {
	u := &User{ID: id, freqScale: 1}
	for c := 0; c < Channels; c++ {
		u.ampScale[c] = 1
	}
	for l := range u.mountScale {
		u.mountScale[l] = 1
	}
	if id == 0 {
		return u
	}
	rng := rand.New(rand.NewSource(id*0x9E3779B9 + 7))
	u.freqScale = 1 + (rng.Float64()*2-1)*0.05
	for c := 0; c < Channels; c++ {
		u.ampScale[c] = 1 + (rng.Float64()*2-1)*0.10
		u.phase[c] = rng.Float64() * 2 * math.Pi
		u.dcShift[c] = (rng.Float64()*2 - 1) * 0.08
	}
	// Every user wears one sensor poorly (loose strap, rotated mount) and
	// the others nearly right.
	bad := Location(rng.Intn(NumLocations))
	for _, l := range Locations() {
		if l == bad {
			u.mountScale[l] = 0.80 + rng.Float64()*0.10
			u.mountNoise[l] = 0.15 + rng.Float64()*0.15
		} else {
			u.mountScale[l] = 0.95 + rng.Float64()*0.05
			u.mountNoise[l] = rng.Float64() * 0.05
		}
	}
	return u
}

// Generator synthesises IMU windows for one profile and user.
type Generator struct {
	// Profile is the dataset profile windows are drawn from.
	Profile *Profile
	// User supplies subject-specific gait perturbations.
	User *User
	// Window is the number of samples per window.
	Window int

	rng *rand.Rand
}

// NewGenerator returns a deterministic generator for the given profile,
// user, window length and seed.
func NewGenerator(p *Profile, u *User, window int, seed int64) *Generator {
	if window <= 0 {
		panic(fmt.Sprintf("synth: invalid window %d", window))
	}
	return &Generator{Profile: p, User: u, Window: window, rng: rand.New(rand.NewSource(seed))}
}

// BodyState captures the per-window whole-body motion parameters: the gait
// cycle phase, a tempo (cadence) jitter, and an effort (vigour) factor.
// These are properties of the *person*, not of any one sensor, so when the
// three sensors observe the same instant of motion they must share one
// BodyState — that is what correlates their errors (a lazy low-effort
// running window looks jogging-ish at every location at once), which in
// turn is why naive majority voting gains little over the best sensor
// (paper Fig. 2) and per-class expertise weighting gains a lot.
type BodyState struct {
	// CyclePhase is the gait cycle phase in radians.
	CyclePhase float64
	// Tempo is the multiplicative cadence jitter (≈1): humans are not
	// metronomes, so cadence is a noisy feature and amplitude-scaled
	// variants of the same gait (walk/jog/run) genuinely confuse.
	Tempo float64
	// Effort is the multiplicative vigour jitter (≈1), blurring amplitude
	// as a feature.
	Effort float64
}

// DrawBodyState samples a body state: cadence jitters ±15% and effort by
// ±25% (clamped) around the activity's nominal signature.
func DrawBodyState(rng *rand.Rand) BodyState {
	effort := 1 + 0.25*rng.NormFloat64()
	if effort < 0.4 {
		effort = 0.4
	}
	return BodyState{
		CyclePhase: rng.Float64() * 2 * math.Pi,
		Tempo:      1 + (rng.Float64()*2-1)*0.15,
		Effort:     effort,
	}
}

// WindowFor synthesises one (Channels × Window) IMU window of the given
// activity class at the given location, drawing a fresh body state from the
// generator's own stream. Repeated calls yield i.i.d. windows.
func (g *Generator) WindowFor(activity int, loc Location) *tensor.Tensor {
	return g.WindowWithState(activity, loc, DrawBodyState(g.rng))
}

// WindowWithState synthesises a window under an externally-supplied body
// state. The simulator draws one state per slot and shares it across all
// three sensors, because they watch the same body at the same moment.
func (g *Generator) WindowWithState(activity int, loc Location, st BodyState) *tensor.Tensor {
	if activity < 0 || activity >= g.Profile.NumClasses() {
		panic(fmt.Sprintf("synth: activity %d out of range for %s", activity, g.Profile.Name))
	}
	sig := g.Profile.sigs[activity][loc]
	out := tensor.New(Channels, g.Window)
	d := out.Data()

	freq := sig.freq * g.User.freqScale * st.Tempo
	cyclePhase := st.CyclePhase
	effort := st.Effort

	mount := g.User.mountScale[loc]
	extraNoise := g.User.mountNoise[loc]
	for c := 0; c < Channels; c++ {
		chJitter := 1 + 0.10*g.rng.NormFloat64()
		amp := sig.amp[c] * g.User.ampScale[c] * effort * chJitter * mount
		amp2 := sig.second[c] * g.User.ampScale[c] * effort * chJitter * mount
		dc := sig.dc[c] + g.User.dcShift[c] + 0.08*g.rng.NormFloat64()
		ph := cyclePhase + g.User.phase[c]*0.25
		row := d[c*g.Window : (c+1)*g.Window]
		for t := 0; t < g.Window; t++ {
			tt := float64(t) / SampleRate
			w := 2 * math.Pi * freq * tt
			v := dc + amp*math.Sin(w+ph) + amp2*math.Sin(2*w+ph*1.7)
			if sig.burst > 0 {
				// Gate with a rectified duty cycle: the signal is active only
				// during the airborne/landing fraction of the jump cycle.
				cycle := math.Mod(freq*tt+cyclePhase/(2*math.Pi), 1)
				if cycle > sig.burst {
					v = dc + 0.15*amp*math.Sin(w+ph)
				}
			}
			v += g.rng.NormFloat64() * (sig.noise + extraNoise)
			row[t] = v
		}
	}
	return out
}

// AddNoiseSNR adds white Gaussian noise to x in place such that the
// resulting signal-to-noise ratio is snrDB relative to x's own power.
// This mirrors the paper's Fig. 6 protocol ("Gaussian noise with maximum
// SNR of 20dB over the unseen test data").
func AddNoiseSNR(x *tensor.Tensor, snrDB float64, rng *rand.Rand) {
	d := x.Data()
	power := 0.0
	for _, v := range d {
		power += v * v
	}
	if len(d) == 0 || power == 0 {
		return
	}
	power /= float64(len(d))
	noisePower := power / math.Pow(10, snrDB/10)
	std := math.Sqrt(noisePower)
	for i := range d {
		d[i] += rng.NormFloat64() * std
	}
}

// Drifted derives a deterministic mid-day drift of the user's gait: a new
// User whose parameters are the receiver's perturbed multiplicatively by a
// magnitude-m step drawn from (ID, epoch). Drift models intra-day variation
// — fatigue slowing cadence, a strap loosening, posture sagging — as opposed
// to the inter-subject variation NewUser models. The same (user, epoch, m)
// always yields the same drifted user, and drifting is composable: epoch 2's
// drift applies on top of epoch 1's when called on the drifted user.
//
// m is the drift magnitude; 0 returns an identical copy. At m = 1 frequency
// shifts by up to ±4%, per-channel amplitude by up to ±12%, posture offsets
// by up to ±0.06, and mount coupling degrades by up to 10% with up to 0.08
// extra rubbing noise — enough to depress a tuned confidence matrix without
// making the signal unrecognisable.
func (u *User) Drifted(epoch int64, m float64) *User {
	if m < 0 {
		panic(fmt.Sprintf("synth: negative drift magnitude %v", m))
	}
	d := *u
	if m == 0 {
		return &d
	}
	rng := rand.New(rand.NewSource(u.ID*0x9E3779B9 + epoch*1_000_003 + 101))
	d.freqScale *= 1 + (rng.Float64()*2-1)*0.04*m
	for c := 0; c < Channels; c++ {
		d.ampScale[c] *= 1 + (rng.Float64()*2-1)*0.12*m
		d.phase[c] += (rng.Float64()*2 - 1) * 0.30 * m
		d.dcShift[c] += (rng.Float64()*2 - 1) * 0.06 * m
	}
	for l := range d.mountScale {
		d.mountScale[l] *= 1 - rng.Float64()*0.10*m
		d.mountNoise[l] += rng.Float64() * 0.08 * m
	}
	return &d
}

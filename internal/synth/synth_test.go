package synth

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"origin/internal/tensor"
)

func TestProfilesHaveExpectedClasses(t *testing.T) {
	mh := MHEALTHProfile()
	if mh.NumClasses() != 6 {
		t.Fatalf("MHEALTH classes = %d, want 6", mh.NumClasses())
	}
	pa := PAMAP2Profile()
	if pa.NumClasses() != 5 {
		t.Fatalf("PAMAP2 classes = %d, want 5", pa.NumClasses())
	}
	if pa.ActivityIndex("Jogging") != -1 {
		t.Fatal("PAMAP2 should not contain Jogging (paper Fig. 5b omits it)")
	}
	for _, want := range []string{"Walking", "Climbing", "Cycling", "Running", "Jumping"} {
		if mh.ActivityIndex(want) < 0 {
			t.Fatalf("MHEALTH missing %q", want)
		}
		if pa.ActivityIndex(want) < 0 {
			t.Fatalf("PAMAP2 missing %q", want)
		}
	}
}

func TestLocationString(t *testing.T) {
	if Chest.String() != "Chest" || LeftAnkle.String() != "Left Ankle" || RightWrist.String() != "Right Wrist" {
		t.Fatal("location names do not match the paper")
	}
	if Location(9).String() == "" {
		t.Fatal("unknown location should still render")
	}
	if len(Locations()) != NumLocations {
		t.Fatalf("Locations() = %d entries, want %d", len(Locations()), NumLocations)
	}
}

func TestWindowShapeAndVariation(t *testing.T) {
	p := MHEALTHProfile()
	g := NewGenerator(p, NewUser(0), 64, 1)
	w1 := g.WindowFor(0, Chest)
	if w1.Dim(0) != Channels || w1.Dim(1) != 64 {
		t.Fatalf("window shape = %v, want [6 64]", w1.Shape())
	}
	w2 := g.WindowFor(0, Chest)
	if w1.Equal(w2, 1e-9) {
		t.Fatal("successive windows should differ (fresh phase + noise)")
	}
}

func TestWindowDeterministicForSeed(t *testing.T) {
	p := MHEALTHProfile()
	g1 := NewGenerator(p, NewUser(3), 64, 42)
	g2 := NewGenerator(p, NewUser(3), 64, 42)
	w1 := g1.WindowFor(2, LeftAnkle)
	w2 := g2.WindowFor(2, LeftAnkle)
	if !w1.Equal(w2, 0) {
		t.Fatal("same seed should give identical windows")
	}
}

func TestWindowForInvalidActivityPanics(t *testing.T) {
	p := MHEALTHProfile()
	g := NewGenerator(p, NewUser(0), 64, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("WindowFor with invalid activity did not panic")
		}
	}()
	g.WindowFor(99, Chest)
}

// meanEnergy returns the average per-sample AC power of a window,
// after removing each channel's mean.
func meanEnergy(w *tensor.Tensor) float64 {
	ch, n := w.Dim(0), w.Dim(1)
	total := 0.0
	for c := 0; c < ch; c++ {
		row := w.Data()[c*n : (c+1)*n]
		m := 0.0
		for _, v := range row {
			m += v
		}
		m /= float64(n)
		for _, v := range row {
			total += (v - m) * (v - m)
		}
	}
	return total / float64(ch*n)
}

func TestActivityIntensityOrdering(t *testing.T) {
	// Running should be far more energetic than cycling at the wrist
	// (grip on handlebar), and the ankle should out-swing the chest when
	// walking. These orderings are what make the sensors *unequal* weak
	// classifiers.
	p := MHEALTHProfile()
	g := NewGenerator(p, NewUser(0), 64, 7)
	avg := func(act int, loc Location) float64 {
		s := 0.0
		for i := 0; i < 20; i++ {
			s += meanEnergy(g.WindowFor(act, loc))
		}
		return s / 20
	}
	run := p.ActivityIndex("Running")
	cyc := p.ActivityIndex("Cycling")
	walk := p.ActivityIndex("Walking")
	if avg(run, RightWrist) <= avg(cyc, RightWrist)*1.5 {
		t.Fatal("running should dominate cycling at the wrist")
	}
	if avg(walk, LeftAnkle) <= avg(walk, Chest) {
		t.Fatal("ankle should out-swing chest while walking")
	}
}

func TestWalkingClimbingOverlapAtAnkle(t *testing.T) {
	// The deliberate confusion: walking and climbing are much closer to
	// each other at the ankle than walking and running are. Compare mean
	// AC energies as a crude proxy for signature distance.
	p := MHEALTHProfile()
	g := NewGenerator(p, NewUser(0), 64, 8)
	avg := func(act int) float64 {
		s := 0.0
		for i := 0; i < 30; i++ {
			s += meanEnergy(g.WindowFor(act, LeftAnkle))
		}
		return s / 30
	}
	walk := avg(p.ActivityIndex("Walking"))
	climb := avg(p.ActivityIndex("Climbing"))
	run := avg(p.ActivityIndex("Running"))
	dWalkClimb := math.Abs(walk - climb)
	dWalkRun := math.Abs(walk - run)
	if dWalkClimb >= dWalkRun {
		t.Fatalf("walking-climbing ankle distance (%v) should be below walking-running (%v)", dWalkClimb, dWalkRun)
	}
}

func TestUserPerturbationsDiffer(t *testing.T) {
	u0 := NewUser(0)
	u1 := NewUser(1)
	u2 := NewUser(2)
	if u0.freqScale != 1 {
		t.Fatal("user 0 must be the unperturbed population average")
	}
	if u1.freqScale == u2.freqScale {
		t.Fatal("different users should have different gait frequency")
	}
	// Same id is reproducible.
	u1b := NewUser(1)
	if u1.freqScale != u1b.freqScale || u1.ampScale != u1b.ampScale {
		t.Fatal("NewUser is not deterministic")
	}
}

func TestUnseenUserShiftsSignal(t *testing.T) {
	p := MHEALTHProfile()
	g0 := NewGenerator(p, NewUser(0), 64, 9)
	g5 := NewGenerator(p, NewUser(5), 64, 9)
	w0 := g0.WindowFor(0, LeftAnkle)
	w5 := g5.WindowFor(0, LeftAnkle)
	if w0.Equal(w5, 0.05) {
		t.Fatal("unseen user's window should differ from population average")
	}
}

func TestAddNoiseSNR(t *testing.T) {
	p := MHEALTHProfile()
	g := NewGenerator(p, NewUser(0), 256, 10)
	w := g.WindowFor(3, LeftAnkle)
	clean := w.Clone()
	rng := rand.New(rand.NewSource(11))
	AddNoiseSNR(w, 20, rng)
	// Estimate realised SNR.
	sig, noise := 0.0, 0.0
	for i, v := range clean.Data() {
		sig += v * v
		d := w.Data()[i] - v
		noise += d * d
	}
	snr := 10 * math.Log10(sig/noise)
	if math.Abs(snr-20) > 1.5 {
		t.Fatalf("realised SNR = %v dB, want ≈20", snr)
	}
}

func TestAddNoiseSNRZeroSignalNoop(t *testing.T) {
	w := tensor.New(2, 8)
	rng := rand.New(rand.NewSource(1))
	AddNoiseSNR(w, 20, rng)
	for _, v := range w.Data() {
		if v != 0 {
			t.Fatal("noise added to an all-zero signal")
		}
	}
}

func TestGenerateTimelineBasics(t *testing.T) {
	p := MHEALTHProfile()
	cfg := DefaultTimelineConfig(5000, 1)
	tl := GenerateTimeline(p, cfg)
	if tl.Len() != 5000 {
		t.Fatalf("timeline length = %d, want 5000", tl.Len())
	}
	// Every class id valid.
	for i, a := range tl.PerSlot {
		if a < 0 || a >= p.NumClasses() {
			t.Fatalf("slot %d has invalid activity %d", i, a)
		}
	}
	// Segments are the RLE of PerSlot.
	total := 0
	for _, s := range tl.Segments {
		if s.Slots <= 0 {
			t.Fatalf("segment with non-positive length: %+v", s)
		}
		total += s.Slots
	}
	if total != tl.Len() {
		t.Fatalf("segment lengths sum to %d, want %d", total, tl.Len())
	}
}

func TestTimelineTemporalContinuity(t *testing.T) {
	p := MHEALTHProfile()
	tl := GenerateTimeline(p, DefaultTimelineConfig(20000, 2))
	same := 0
	for i := 1; i < tl.Len(); i++ {
		if tl.PerSlot[i] == tl.PerSlot[i-1] {
			same++
		}
	}
	if rate := float64(same) / float64(tl.Len()-1); rate < 0.98 {
		t.Fatalf("self-transition rate = %v, want >= 0.98 (temporal continuity)", rate)
	}
	// But it must actually switch sometimes.
	if len(tl.Segments) < 20 {
		t.Fatalf("only %d segments in 20000 slots — not a realistic stream", len(tl.Segments))
	}
}

func TestTimelineSegmentsAlternate(t *testing.T) {
	p := MHEALTHProfile()
	tl := GenerateTimeline(p, DefaultTimelineConfig(20000, 3))
	for i := 1; i < len(tl.Segments); i++ {
		if tl.Segments[i].Activity == tl.Segments[i-1].Activity {
			t.Fatalf("segments %d and %d share activity %d", i-1, i, tl.Segments[i].Activity)
		}
	}
}

func TestTimelineCoversAllClasses(t *testing.T) {
	p := MHEALTHProfile()
	tl := GenerateTimeline(p, DefaultTimelineConfig(50000, 4))
	counts := classCounts(tl, p.NumClasses())
	for c, n := range counts {
		if n == 0 {
			t.Fatalf("class %d (%s) never appears in a 50000-slot stream", c, p.Activities[c])
		}
	}
}

func TestTimelineDeterministic(t *testing.T) {
	p := MHEALTHProfile()
	a := GenerateTimeline(p, DefaultTimelineConfig(3000, 9))
	b := GenerateTimeline(p, DefaultTimelineConfig(3000, 9))
	for i := range a.PerSlot {
		if a.PerSlot[i] != b.PerSlot[i] {
			t.Fatalf("timelines diverge at slot %d", i)
		}
	}
}

// prop: timelines honour MinSegment for every segment except possibly the
// final one (which may be truncated by the stream end).
func TestTimelineMinSegmentQuick(t *testing.T) {
	p := MHEALTHProfile()
	f := func(seed int64) bool {
		cfg := TimelineConfig{Slots: 2000, MeanSegment: 80, MinSegment: 25, Seed: seed}
		tl := GenerateTimeline(p, cfg)
		for i, s := range tl.Segments {
			if i == len(tl.Segments)-1 {
				continue
			}
			if s.Slots < cfg.MinSegment {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// prop: AddNoiseSNR with higher SNR perturbs less.
func TestNoiseMonotoneQuick(t *testing.T) {
	p := MHEALTHProfile()
	f := func(seed int64) bool {
		g := NewGenerator(p, NewUser(0), 64, seed)
		w := g.WindowFor(0, LeftAnkle)
		lo := w.Clone()
		hi := w.Clone()
		AddNoiseSNR(lo, 5, rand.New(rand.NewSource(seed)))
		AddNoiseSNR(hi, 30, rand.New(rand.NewSource(seed)))
		dLo, dHi := 0.0, 0.0
		for i := range w.Data() {
			a := lo.Data()[i] - w.Data()[i]
			b := hi.Data()[i] - w.Data()[i]
			dLo += a * a
			dHi += b * b
		}
		return dLo > dHi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWindowFor(b *testing.B) {
	p := MHEALTHProfile()
	g := NewGenerator(p, NewUser(0), 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.WindowFor(i%p.NumClasses(), Location(i%NumLocations))
	}
}

func TestMarkovTimelineFollowsTransitions(t *testing.T) {
	p := MHEALTHProfile()
	cfg := MarkovTimelineConfig{
		Slots: 200000, MeanSegment: 20, MinSegment: 5, Seed: 5,
		Transitions: DailyRoutineTransitions(p),
	}
	tl := GenerateMarkovTimeline(p, cfg)
	if tl.Len() != cfg.Slots {
		t.Fatalf("length = %d", tl.Len())
	}
	// Count segment transitions walking→climbing vs walking→jumping: the
	// boosted pair must dominate.
	walk := p.ActivityIndex("Walking")
	climb := p.ActivityIndex("Climbing")
	jump := p.ActivityIndex("Jumping")
	wc, wj := 0, 0
	for i := 1; i < len(tl.Segments); i++ {
		if tl.Segments[i-1].Activity != walk {
			continue
		}
		switch tl.Segments[i].Activity {
		case climb:
			wc++
		case jump:
			wj++
		}
	}
	if wc <= 2*wj {
		t.Fatalf("walking→climbing (%d) should dominate walking→jumping (%d)", wc, wj)
	}
	// No self-transitions between segments.
	for i := 1; i < len(tl.Segments); i++ {
		if tl.Segments[i].Activity == tl.Segments[i-1].Activity {
			t.Fatal("self-transition between segments")
		}
	}
}

func TestMarkovTimelineValidation(t *testing.T) {
	p := MHEALTHProfile()
	defer func() {
		if recover() == nil {
			t.Fatal("bad transition matrix did not panic")
		}
	}()
	GenerateMarkovTimeline(p, MarkovTimelineConfig{
		Slots: 10, MeanSegment: 5, MinSegment: 1,
		Transitions: [][]float64{{1}},
	})
}

func TestDailyRoutineCoversAllPairs(t *testing.T) {
	p := MHEALTHProfile()
	w := DailyRoutineTransitions(p)
	for a := 0; a < p.NumClasses(); a++ {
		off := 0.0
		for b, v := range w[a] {
			if a != b {
				off += v
			}
			if v < 0 {
				t.Fatalf("negative weight at (%d,%d)", a, b)
			}
		}
		if off <= 0 {
			t.Fatalf("row %d has no positive off-diagonal weight", a)
		}
	}
}

// prop: Drifted is deterministic in (user, epoch, magnitude), moves the gait
// parameters at positive magnitude, is the identity at magnitude zero, and
// never mutates the receiver.
func TestUserDrifted(t *testing.T) {
	u := NewUser(42)
	before := *u
	a, b := u.Drifted(3, 1), u.Drifted(3, 1)
	if *u != before {
		t.Fatal("Drifted mutated the receiver")
	}
	if *a != *b {
		t.Fatal("same (user, epoch, magnitude) produced different drifts")
	}
	if *a == *u {
		t.Fatal("magnitude-1 drift left the user unchanged")
	}
	if other := u.Drifted(4, 1); *other == *a {
		t.Fatal("different epochs produced identical drifts")
	}
	if id := u.Drifted(3, 0); *id != *u {
		t.Fatal("magnitude-0 drift is not the identity")
	}
	// Drift composes: epoch 2 on top of epoch 1 differs from either alone.
	if twice := a.Drifted(4, 1); *twice == *a {
		t.Fatal("composed drift left the user unchanged")
	}
	// Drift is bounded: a unit step keeps frequency within ±4%.
	if r := a.freqScale / u.freqScale; r < 0.96 || r > 1.04 {
		t.Fatalf("unit drift moved freqScale by %v, want within ±4%%", r)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative magnitude did not panic")
		}
	}()
	u.Drifted(1, -0.5)
}

// prop: GenerateMixTimeline is deterministic, covers the full slot count,
// never self-transitions across segments, draws only positive-weight
// classes, and skews class balance toward the heavy weights.
func TestGenerateMixTimeline(t *testing.T) {
	p := MHEALTHProfile()
	cfg := MixTimelineConfig{Slots: 4000, MeanSegment: 24, MinSegment: 8, Seed: 5,
		Mix: []float64{8, 0, 1, 0, 1, 0}}
	a, b := GenerateMixTimeline(p, cfg), GenerateMixTimeline(p, cfg)
	if !reflect.DeepEqual(a.PerSlot, b.PerSlot) {
		t.Fatal("same config produced different timelines")
	}
	if a.Len() != cfg.Slots {
		t.Fatalf("timeline length %d, want %d", a.Len(), cfg.Slots)
	}
	for i := 1; i < len(a.Segments); i++ {
		if a.Segments[i].Activity == a.Segments[i-1].Activity {
			t.Fatal("adjacent segments share a class")
		}
	}
	counts := classCounts(a, p.NumClasses())
	for c, w := range cfg.Mix {
		if w == 0 && counts[c] > 0 {
			t.Fatalf("zero-weight class %d occupies %d slots", c, counts[c])
		}
	}
	if counts[0] <= counts[2] || counts[0] <= counts[4] {
		t.Fatalf("weight-8 class not dominant: counts %v", counts)
	}
	for name, bad := range map[string]MixTimelineConfig{
		"wrong len":    {Slots: 10, MeanSegment: 4, MinSegment: 1, Mix: []float64{1, 1}},
		"negative":     {Slots: 10, MeanSegment: 4, MinSegment: 1, Mix: []float64{1, -1, 0, 0, 0, 0}},
		"one positive": {Slots: 10, MeanSegment: 4, MinSegment: 1, Mix: []float64{1, 0, 0, 0, 0, 0}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			GenerateMixTimeline(p, bad)
		}()
	}
}

// classCounts returns how many slots each class occupies.
func classCounts(tl *Timeline, classes int) []int {
	counts := make([]int, classes)
	for _, a := range tl.PerSlot {
		counts[a]++
	}
	return counts
}

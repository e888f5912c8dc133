package fleet

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"origin/internal/ensemble"
	"origin/internal/synth"
	"origin/internal/tensor"
)

// voteStream produces a deterministic per-round vote sequence from a seed.
func voteStream(m *Model, seed int64, rounds int) [][]SensorInput {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]SensorInput, rounds)
	for k := 0; k < rounds; k++ {
		out[k] = []SensorInput{{
			Sensor:     k % m.Sensors(),
			Class:      rng.Intn(m.Classes()),
			Confidence: 0.01 + 0.05*rng.Float64(),
		}}
	}
	return out
}

func classSeq(t *testing.T, s *Session, stream [][]SensorInput) []int {
	t.Helper()
	seq := make([]int, len(stream))
	for k, in := range stream {
		res, err := s.Classify(in)
		if err != nil {
			t.Fatalf("round %d: %v", k, err)
		}
		if res.Slot != k {
			t.Fatalf("round %d: slot %d", k, res.Slot)
		}
		seq[k] = res.Class
	}
	return seq
}

func TestSessionValidation(t *testing.T) {
	m := tinyModel()
	if _, err := NewSession("s", 1, m, Opts{StaleLimit: -1}); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative stale limit: err=%v", err)
	}
	if _, err := NewSession("s", 1, m, Opts{Quorum: m.Sensors() + 1}); !errors.Is(err, ErrInvalid) {
		t.Errorf("oversized quorum: err=%v", err)
	}
	s, err := NewSession("s", 1, m, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	bad := []SensorInput{
		{Sensor: -1, Class: 0, Confidence: 0.1},
		{Sensor: m.Sensors(), Class: 0, Confidence: 0.1},
		{Sensor: 0, Class: m.Classes(), Confidence: 0.1},
		{Sensor: 0, Class: -1, Confidence: 0.1},
		{Sensor: 0, Class: 0, Confidence: -0.5},
		{Sensor: 0, Window: tensor.New(synth.Channels, m.Window+1)},
		{Sensor: 0, Window: tensor.New(synth.Channels * m.Window)},
	}
	for i, in := range bad {
		if _, err := s.Classify([]SensorInput{in}); !errors.Is(err, ErrInvalid) {
			t.Errorf("bad input %d accepted: err=%v", i, err)
		}
	}
	// A rejected round must not consume a slot.
	if got := s.Info().Slots; got != 0 {
		t.Errorf("slots after rejected rounds = %d, want 0", got)
	}
}

// prop (regression): a round carrying two inputs for the same sensor is
// rejected as ErrInvalid before any state moves — a duplicate vote would
// double-count one location in the ensemble fusion and corrupt its recall
// entry. Window and precomputed-vote inputs collide the same way.
func TestSessionRejectsDuplicateSensor(t *testing.T) {
	m := tinyModel()
	s, err := NewSession("d", 1, m, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	dup := [][]SensorInput{
		{
			{Sensor: 1, Class: 0, Confidence: 0.1},
			{Sensor: 0, Class: 1, Confidence: 0.2},
			{Sensor: 1, Class: 2, Confidence: 0.3},
		},
		{
			{Sensor: 0, Window: tensor.New(synth.Channels, m.Window)},
			{Sensor: 0, Class: 1, Confidence: 0.1},
		},
	}
	for i, inputs := range dup {
		if _, err := s.Classify(inputs); !errors.Is(err, ErrInvalid) {
			t.Errorf("duplicate round %d accepted: err=%v", i, err)
		}
	}
	if got := s.Info().Slots; got != 0 {
		t.Errorf("slots after rejected duplicate rounds = %d, want 0", got)
	}
	// Distinct sensors in one round remain valid.
	ok := []SensorInput{
		{Sensor: 0, Class: 0, Confidence: 0.1},
		{Sensor: 1, Class: 0, Confidence: 0.1},
	}
	if _, err := s.Classify(ok); err != nil {
		t.Fatalf("distinct-sensor round rejected: %v", err)
	}
}

// prop: Opts.Validate boundary cases — a quorum of exactly the sensor count
// is the strictest valid setting (every sensor must vote), and a stale limit
// of zero means "keep recalled votes indefinitely", not "reject".
func TestOptsValidateEdges(t *testing.T) {
	m := tinyModel()
	if err := (Opts{Quorum: m.Sensors()}).Validate(m); err != nil {
		t.Errorf("quorum == Sensors() rejected: %v", err)
	}
	if err := (Opts{Quorum: m.Sensors() + 1}).Validate(m); !errors.Is(err, ErrInvalid) {
		t.Errorf("quorum == Sensors()+1 accepted: err=%v", err)
	}
	if err := (Opts{StaleLimit: 0}).Validate(m); err != nil {
		t.Errorf("stale limit 0 rejected: %v", err)
	}
	if err := (Opts{StaleLimit: -1}).Validate(m); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative stale limit accepted: err=%v", err)
	}
	// A session honouring the full quorum abstains when only one of the
	// sensors votes.
	s, err := NewSession("q", 1, m, Opts{Quorum: m.Sensors()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Classify([]SensorInput{{Sensor: 0, Class: 1, Confidence: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != -1 {
		t.Errorf("quorum %d with 1 vote classified %d, want abstain", m.Sensors(), res.Class)
	}
}

// prop (determinism contract): a session's classification sequence depends
// only on its own request order. Replaying the same stream on a fresh
// session — serially or while other sessions hammer the same shared model
// concurrently — yields the identical sequence.
func TestSessionDeterministicReplay(t *testing.T) {
	const rounds = 120
	m := tinyModel()
	stream := voteStream(m, 7, rounds)

	serial, err := NewSession("serial", 1, m, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	want := classSeq(t, serial, stream)

	// Replay the same stream on many sessions concurrently, with extra
	// noise sessions running unrelated streams against the same model.
	const replicas = 4
	got := make([][]int, replicas)
	var wg sync.WaitGroup
	for i := 0; i < replicas; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := NewSession("r", int64(i), m, Opts{})
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = classSeq(t, s, stream)
		}(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := NewSession("noise", 100+int64(i), m, Opts{})
			if err != nil {
				t.Error(err)
				return
			}
			classSeq(t, s, voteStream(m, 900+int64(i), rounds))
		}(i)
	}
	wg.Wait()
	for i := 0; i < replicas; i++ {
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("replica %d diverged from serial replay:\n got %v\nwant %v", i, got[i], want)
		}
	}
}

// prop: window requests are classified server-side deterministically —
// the same IMU window stream produces the same sequence on every session.
func TestSessionWindowDeterminism(t *testing.T) {
	const rounds = 24
	m := tinyModel()
	run := func() []int {
		s, err := NewSession("w", 1, m, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		gen := synth.NewGenerator(m.System.Profile, synth.NewUser(1), m.Window, 5)
		seq := make([]int, rounds)
		for k := 0; k < rounds; k++ {
			w := gen.WindowFor(k%m.Classes(), synth.Location(k%m.Sensors()))
			res, err := s.Classify([]SensorInput{{Sensor: k % m.Sensors(), Window: w}})
			if err != nil {
				t.Fatalf("round %d: %v", k, err)
			}
			if len(res.Votes) != 1 || res.Votes[0].Confidence <= 0 {
				t.Fatalf("round %d: window vote not resolved: %+v", k, res.Votes)
			}
			seq[k] = res.Class
		}
		return seq
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("window replay diverged:\n got %v\nwant %v", a, b)
	}
}

// prop: a round that mixes windows and precomputed votes scores each window
// on its own sensor's net, exactly as a one-window round would, and echoes
// each vote unchanged, in request order.
func TestSessionMixedRoundScoresEachWindow(t *testing.T) {
	m := tinyModel()
	gen := synth.NewGenerator(m.System.Profile, synth.NewUser(1), m.Window, 5)
	w0, w2 := gen.WindowFor(1, synth.Location(0)), gen.WindowFor(2, synth.Location(2))
	classify := func(inputs []SensorInput) []VoteInfo {
		s, err := NewSession("m", 1, m, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Classify(inputs)
		if err != nil {
			t.Fatal(err)
		}
		return res.Votes
	}
	vote := SensorInput{Sensor: 1, Class: 3, Confidence: 0.05}
	want := []VoteInfo{
		classify([]SensorInput{{Sensor: 2, Window: w2}})[0],
		{Sensor: 1, Class: 3, Confidence: 0.05},
		classify([]SensorInput{{Sensor: 0, Window: w0}})[0],
	}
	got := classify([]SensorInput{{Sensor: 2, Window: w2}, vote, {Sensor: 0, Window: w0}})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mixed round votes %+v, want %+v", got, want)
	}
}

// prop: Freeze pins the confidence matrix (the static ablation); the
// default session adapts it, and neither touches the model's shared matrix.
func TestSessionFreezeAndIsolation(t *testing.T) {
	const rounds = 60
	m := tinyModel()
	shared := m.System.Matrix.Clone()

	frozen, err := NewSession("f", 1, m, Opts{Freeze: true})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := NewSession("a", 2, m, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	frozenStart := frozen.State(nil).Matrix
	stream := voteStream(m, 11, rounds)
	classSeq(t, frozen, stream)
	classSeq(t, adaptive, stream)

	if got := frozen.Info().Adapts; got != 0 {
		t.Errorf("frozen session applied %d adapts, want 0", got)
	}
	if !matrixEqual(frozen.State(nil).Matrix, frozenStart, m) {
		t.Error("frozen session's matrix changed")
	}
	if got := adaptive.Info().Adapts; got == 0 {
		t.Error("adaptive session applied no adapts")
	}
	if matrixEqual(adaptive.State(nil).Matrix, frozenStart, m) {
		t.Error("adaptive session's matrix never moved")
	}
	if !matrixEqual(m.System.Matrix, shared, m) {
		t.Error("session adaptation mutated the shared model matrix")
	}
}

func matrixEqual(a, b *ensemble.Matrix, m *Model) bool {
	for s := 0; s < m.Sensors(); s++ {
		for c := 0; c < m.Classes(); c++ {
			if a.At(s, c) != b.At(s, c) {
				return false
			}
		}
	}
	return true
}

// prop: an empty classify round is valid (recall-only) and never adapts.
func TestSessionEmptyRound(t *testing.T) {
	m := tinyModel()
	s, err := NewSession("e", 1, m, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	// Prime the recall store with one fresh round.
	if _, err := s.Classify([]SensorInput{{Sensor: 0, Class: 2, Confidence: 0.04}}); err != nil {
		t.Fatal(err)
	}
	adapts := s.Info().Adapts
	res, err := s.Classify(nil)
	if err != nil {
		t.Fatalf("empty round rejected: %v", err)
	}
	if res.Slot != 1 {
		t.Errorf("empty round slot = %d, want 1", res.Slot)
	}
	if res.Class != 2 {
		t.Errorf("recall-only round classified %d, want recalled 2", res.Class)
	}
	if got := s.Info().Adapts; got != adapts {
		t.Errorf("empty round adapted the matrix (%d → %d)", adapts, got)
	}
	if got := s.Info().Slots; got != 2 {
		t.Errorf("slots = %d, want 2", got)
	}
}

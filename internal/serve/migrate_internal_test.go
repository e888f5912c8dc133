package serve

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"origin/internal/comm"
	"origin/internal/synth"
)

// lineageFixture builds a mid-round stream state: sensor 0 mid-window with a
// live ring, sensor 1 already in the round order, sensor 2 untouched.
func lineageFixture(t testing.TB) *streamState {
	t.Helper()
	asm := NewStreamAssembler(3, 8)
	mk := func(sensor, seq, n int, end bool) comm.IMUFrame {
		samples := make([][]float64, synth.Channels)
		for c := range samples {
			samples[c] = make([]float64, n)
			for i := range samples[c] {
				samples[c][i] = float64(sensor*100+seq*10+c) + float64(i)/3.0
			}
		}
		return comm.IMUFrame{Sensor: sensor, Seq: seq, EndRound: end, Samples: samples}
	}
	for _, f := range []comm.IMUFrame{mk(0, 0, 8, true), mk(0, 1, 3, false), mk(1, 0, 8, false)} {
		if _, err := asm.Ingest(f); err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	asm.TakeRound() // close round 0 so the next frames opened round 1
	if _, err := asm.Ingest(mk(1, 1, 2, false)); err != nil {
		t.Fatal(err)
	}
	return &streamState{
		session: "s-1", token: "rt-9", asm: asm,
		lastSlot: 0, lastClass: 3, hasLast: true,
	}
}

func TestStreamAttachmentRoundTrip(t *testing.T) {
	st := lineageFixture(t)
	blob := encodeStreamAttachment(st)
	got, err := decodeStreamAttachment(blob, "s-1", 3, 8)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.token != st.token || got.lastSlot != st.lastSlot ||
		got.lastClass != st.lastClass || got.hasLast != st.hasLast {
		t.Fatalf("lineage header changed: %+v vs %+v", got, st)
	}
	if !reflect.DeepEqual(got.asm.NextSeqs(), st.asm.NextSeqs()) {
		t.Fatalf("seqs %v, want %v", got.asm.NextSeqs(), st.asm.NextSeqs())
	}
	if !reflect.DeepEqual(got.asm.round, st.asm.round) || !reflect.DeepEqual(got.asm.inRound, st.asm.inRound) {
		t.Fatalf("round order %v/%v, want %v/%v", got.asm.round, got.asm.inRound, st.asm.round, st.asm.inRound)
	}
	for i := range st.asm.sensors {
		a, b := &st.asm.sensors[i], &got.asm.sensors[i]
		if a.filled != b.filled {
			t.Fatalf("sensor %d filled %d, want %d", i, b.filled, a.filled)
		}
		if len(a.ring) != len(b.ring) {
			t.Fatalf("sensor %d ring len %d, want %d", i, len(b.ring), len(a.ring))
		}
		for j := range a.ring {
			if math.Float64bits(a.ring[j]) != math.Float64bits(b.ring[j]) {
				t.Fatalf("sensor %d ring[%d] lost bit-exactness", i, j)
			}
		}
	}
	// The restored assembler must CONTINUE identically: finish round 1 on
	// both and compare the assembled windows bit for bit.
	fin := comm.IMUFrame{Sensor: 0, Seq: 2, EndRound: true,
		Samples: func() [][]float64 {
			s := make([][]float64, synth.Channels)
			for c := range s {
				s[c] = []float64{1.5, 2.5}
			}
			return s
		}()}
	endA, errA := st.asm.Ingest(fin)
	endB, errB := got.asm.Ingest(fin)
	if errA != nil || errB != nil || !endA || !endB {
		t.Fatalf("continuation ingest: %v/%v end=%v/%v", errA, errB, endA, endB)
	}
	ra, rb := st.asm.TakeRound(), got.asm.TakeRound()
	if len(ra) != len(rb) {
		t.Fatalf("round sizes %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].Sensor != rb[i].Sensor {
			t.Fatalf("round order diverged at %d", i)
		}
		da, db := ra[i].Window.Data(), rb[i].Window.Data()
		for j := range da {
			if math.Float64bits(da[j]) != math.Float64bits(db[j]) {
				t.Fatalf("window %d sample %d diverged after restore", i, j)
			}
		}
	}
}

func TestStreamAttachmentRejectsDamage(t *testing.T) {
	good := encodeStreamAttachment(lineageFixture(t))
	cases := map[string]struct {
		blob            []byte
		sensors, window int
	}{
		"empty":           {nil, 3, 8},
		"bad magic":       {append([]byte("OSAX"), good[4:]...), 3, 8},
		"truncated":       {good[:len(good)-5], 3, 8},
		"trailing":        {append(append([]byte(nil), good...), 0), 3, 8},
		"wrong sensors":   {good, 4, 8},
		"wrong window":    {good, 3, 16},
		"version smashed": {append(append([]byte(nil), good[:4]...), append([]byte{0x7f}, good[5:]...)...), 3, 8},
	}
	for name, c := range cases {
		if _, err := decodeStreamAttachment(c.blob, "s-1", c.sensors, c.window); err == nil {
			t.Errorf("%s: decode accepted damaged attachment", name)
		}
	}
}

// FuzzDecodeStreamAttachment: the attachment decoder never panics, and any
// attachment it accepts re-encodes to a form that decodes again and encodes
// to the same bytes (the raw input may differ through non-minimal varints).
func FuzzDecodeStreamAttachment(f *testing.F) {
	seed := encodeStreamAttachment(lineageFixture(f))
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte("OSA1"))
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := decodeStreamAttachment(b, "s-1", 3, 8)
		if err != nil {
			return
		}
		out := encodeStreamAttachment(st)
		st2, err := decodeStreamAttachment(out, "s-1", 3, 8)
		if err != nil {
			t.Fatalf("re-decode of an accepted attachment failed: %v", err)
		}
		if again := encodeStreamAttachment(st2); !bytes.Equal(again, out) {
			t.Fatal("re-encode cycle changed the attachment")
		}
	})
}

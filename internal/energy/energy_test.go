package energy

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func defaultTrace(seed int64) *Trace {
	return GenerateWiFiTrace(DefaultWiFiTraceConfig(300, seed))
}

func TestGenerateWiFiTraceBasics(t *testing.T) {
	tr := defaultTrace(1)
	if tr.Len() != 30000 {
		t.Fatalf("trace length = %d, want 30000", tr.Len())
	}
	if d := float64(tr.Len()) * tr.Tick; math.Abs(d-300) > 1e-9 {
		t.Fatalf("duration = %v, want 300", d)
	}
	for i, p := range tr.Power {
		if p < 0 || math.IsNaN(p) {
			t.Fatalf("tick %d has invalid power %v", i, p)
		}
	}
}

func TestTraceMeanInCalibratedRange(t *testing.T) {
	// The Fig. 1 calibration needs a mean around 60–130 µW.
	tr := GenerateWiFiTrace(DefaultWiFiTraceConfig(1200, 2))
	mean := tr.Mean()
	if mean < 40e-6 || mean > 160e-6 {
		t.Fatalf("mean harvested power = %v W, want ≈ 0.9e-4", mean)
	}
}

func TestTraceIsBursty(t *testing.T) {
	tr := GenerateWiFiTrace(DefaultWiFiTraceConfig(1200, 3))
	mean := tr.Mean()
	peak := tr.Peak()
	if peak < 2.5*mean {
		t.Fatalf("peak/mean = %v, want >= 2.5 (bursty trace)", peak/mean)
	}
	// A substantial fraction of ticks must be well below the mean
	// (quiet gaps), or intermittency would not bite.
	low := 0
	for _, p := range tr.Power {
		if p < 0.5*mean {
			low++
		}
	}
	if frac := float64(low) / float64(tr.Len()); frac < 0.3 {
		t.Fatalf("only %v of ticks are quiet, want >= 0.3", frac)
	}
}

func TestTraceDeterministicAndSeedSensitive(t *testing.T) {
	a := defaultTrace(7)
	b := defaultTrace(7)
	c := defaultTrace(8)
	for i := range a.Power {
		if a.Power[i] != b.Power[i] {
			t.Fatalf("same seed diverges at tick %d", i)
		}
	}
	same := 0
	for i := range a.Power {
		if a.Power[i] == c.Power[i] {
			same++
		}
	}
	if same == len(a.Power) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestTraceAtWrapsAround(t *testing.T) {
	tr := &Trace{Tick: 0.01, Power: []float64{1, 2, 3}}
	if tr.At(3) != 1 || tr.At(4) != 2 || tr.At(700) != tr.At(700%3) {
		t.Fatal("At should replay cyclically")
	}
}

func TestTraceScale(t *testing.T) {
	tr := &Trace{Tick: 0.01, Power: []float64{1, 2}}
	s := tr.Scale(2.5)
	if s.Power[0] != 2.5 || s.Power[1] != 5 {
		t.Fatalf("Scale = %v", s.Power)
	}
	if tr.Power[0] != 1 {
		t.Fatal("Scale mutated the original")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := defaultTrace(4)
	tr.Power = tr.Power[:500]
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("round-trip length %d != %d", back.Len(), tr.Len())
	}
	if math.Abs(back.Tick-tr.Tick) > 1e-9 {
		t.Fatalf("round-trip tick %v != %v", back.Tick, tr.Tick)
	}
	for i := range tr.Power {
		if math.Abs(back.Power[i]-tr.Power[i]) > 1e-12+1e-6*tr.Power[i] {
			t.Fatalf("round-trip power[%d] = %v, want %v", i, back.Power[i], tr.Power[i])
		}
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	tr := defaultTrace(5)
	tr.Power = tr.Power[:100]
	path := t.TempDir() + "/trace.csv"
	if err := tr.SaveCSVFile(path); err != nil {
		t.Fatalf("SaveCSVFile: %v", err)
	}
	back, err := LoadCSVFile(path)
	if err != nil {
		t.Fatalf("LoadCSVFile: %v", err)
	}
	if back.Len() != 100 {
		t.Fatalf("loaded %d samples", back.Len())
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("time_s,power_w\n1,2,3\n")); err == nil {
		t.Fatal("accepted 3-column row")
	}
	if _, err := ReadCSV(bytes.NewBufferString("time_s,power_w\nx,2\n0.01,3\n")); err == nil {
		t.Fatal("accepted non-numeric time")
	}
	if _, err := ReadCSV(bytes.NewBufferString("time_s,power_w\n0,1\n")); err == nil {
		t.Fatal("accepted single-sample trace")
	}
}

func TestCapacitorHarvestAndSaturation(t *testing.T) {
	c := NewCapacitor(100e-6, 0, 5e-6, 0)
	c.Harvest(1e-3, 0.05) // 50 µJ
	if math.Abs(c.Stored()-50e-6) > 1e-12 {
		t.Fatalf("stored = %v, want 50µJ", c.Stored())
	}
	c.Harvest(1e-3, 0.1) // would add 100 µJ → saturates at 100 µJ
	if c.Stored() != 100e-6 {
		t.Fatalf("stored = %v, want capacity", c.Stored())
	}
	_, _, wasted := c.Stats()
	if wasted <= 0 {
		t.Fatal("saturation should waste energy")
	}
}

func TestCapacitorLeakage(t *testing.T) {
	c := NewCapacitor(100e-6, 1e-6, 0, 50e-6)
	c.Harvest(0, 10) // leak 10 µJ
	if math.Abs(c.Stored()-40e-6) > 1e-12 {
		t.Fatalf("stored after leak = %v, want 40µJ", c.Stored())
	}
	// Leak never goes negative.
	c.Harvest(0, 1e6)
	if c.Stored() != 0 {
		t.Fatalf("stored = %v, want 0", c.Stored())
	}
}

func TestCapacitorDrawRespectsBrownOut(t *testing.T) {
	c := NewCapacitor(100e-6, 0, 10e-6, 30e-6)
	if !c.Draw(15e-6) {
		t.Fatal("draw within available should succeed")
	}
	if c.Draw(10e-6) {
		t.Fatal("draw crossing brown-out should fail")
	}
	if math.Abs(c.Stored()-15e-6) > 1e-15 {
		t.Fatalf("failed draw must not consume: stored=%v", c.Stored())
	}
	if got := c.Available(); math.Abs(got-5e-6) > 1e-15 {
		t.Fatalf("available = %v, want 5µJ", got)
	}
}

func TestCapacitorDrawUpTo(t *testing.T) {
	c := NewCapacitor(100e-6, 0, 10e-6, 30e-6)
	got := c.DrawUpTo(50e-6)
	if math.Abs(got-20e-6) > 1e-15 {
		t.Fatalf("DrawUpTo = %v, want 20µJ (available above brown-out)", got)
	}
	if got := c.DrawUpTo(1e-6); got > 1e-15 {
		t.Fatalf("DrawUpTo at brown-out = %v, want 0", got)
	}
}

func TestCapacitorNegativeDrawPanics(t *testing.T) {
	c := NewCapacitor(1, 0, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("negative draw did not panic")
		}
	}()
	c.Draw(-1)
}

// prop: energy conservation — stored + consumed + wasted == harvested +
// initial − leaked, within float tolerance, for any random
// harvest/draw sequence.
func TestCapacitorConservationQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRng(seed)
		initial := 20e-6
		leakW := 0.5e-6
		c := NewCapacitor(120e-6, leakW, 5e-6, initial)
		leaked := 0.0
		for i := 0; i < 200; i++ {
			p := rng.Float64() * 400e-6
			dt := 0.01 + rng.Float64()*0.1
			before := c.Stored()
			c.Harvest(p, dt)
			// Track what leak actually removed (bounded by available charge).
			l := leakW * dt
			if before+p*dt < l {
				l = before + p*dt
			}
			leaked += l
			if rng.Float64() < 0.4 {
				c.DrawUpTo(rng.Float64() * 60e-6)
			}
		}
		h, used, wasted := c.Stats()
		lhs := c.Stored() + used + wasted + leaked
		rhs := h + initial
		return math.Abs(lhs-rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGenerateWiFiTrace(b *testing.B) {
	cfg := DefaultWiFiTraceConfig(60, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GenerateWiFiTrace(cfg)
	}
}

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// prop: ReadCSV never panics on arbitrary input.
func TestReadCSVNeverPanicsQuick(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = ReadCSV(bytes.NewReader(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBatteryBasics(t *testing.T) {
	b := NewBattery(10, 1e-3)
	if b.Stored() != b.CapacityJ {
		t.Fatal("new battery should be full")
	}
	// Power-limited: 1 mW over 10 ms delivers at most 10 µJ.
	if got := b.Supply(1, 0.01); got != 10e-6 {
		t.Fatalf("supply = %v, want 10 µJ (power limited)", got)
	}
	if b.Drawn() != 10e-6 {
		t.Fatalf("drawn = %v", b.Drawn())
	}
	// Charge-limited near empty.
	b.stored = 3e-6
	if got := b.Supply(1, 10); got != 3e-6 {
		t.Fatalf("supply = %v, want remaining 3 µJ", got)
	}
	if b.Stored() != 0 {
		t.Fatal("battery should be empty")
	}
	if got := b.Supply(1, 10); got != 0 {
		t.Fatalf("empty battery supplied %v", got)
	}
}

func TestBatterySelfDischarge(t *testing.T) {
	b := NewBattery(10, 1)
	b.SelfDischargeW = 1e-3
	b.Tick(1000) // 1 J shelf loss
	if math.Abs(b.Stored()-9) > 1e-9 {
		t.Fatalf("stored = %v, want 9", b.Stored())
	}
	b.Tick(1e9)
	if b.Stored() != 0 {
		t.Fatal("self-discharge should floor at zero")
	}
}

func TestBatteryValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBattery(0, ...) did not panic")
		}
	}()
	NewBattery(0, 1)
}

func TestTraceOffset(t *testing.T) {
	tr := &Trace{Tick: 0.01, Power: []float64{1e-6, 2e-6}}
	o := tr.Offset(3e-6)
	if math.Abs(o.Power[0]-4e-6) > 1e-18 || math.Abs(o.Power[1]-5e-6) > 1e-18 {
		t.Fatalf("Offset = %v", o.Power)
	}
	neg := tr.Offset(-5e-6)
	if neg.Power[0] != 0 {
		t.Fatal("negative offsets should clamp at zero")
	}
	if tr.Power[0] != 1e-6 {
		t.Fatal("Offset mutated the original")
	}
}

package nvp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"origin/internal/energy"
)

// bigCap returns a store with ample energy and no brown-out threshold.
func bigCap(j float64) *energy.Capacitor {
	return energy.NewCapacitor(1.0, 0, 0, j)
}

func TestTaskProgress(t *testing.T) {
	task := NewTask(100)
	if task.Done() || task.Progress() != 0 {
		t.Fatal("fresh task should be 0% done")
	}
	task.done = 50
	if task.Progress() != 0.5 {
		t.Fatalf("progress = %v", task.Progress())
	}
	task.done = 200
	if !task.Done() || task.Progress() != 1 {
		t.Fatal("overshoot should clamp to done")
	}
}

func TestNewTaskInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTask(0) did not panic")
		}
	}()
	NewTask(0)
}

func TestConfigDerivedQuantities(t *testing.T) {
	cfg := DefaultConfig()
	if math.Abs(cfg.ActivePowerW()-0.4e-3) > 1e-12 {
		t.Fatalf("active power = %v, want 0.4 mW", cfg.ActivePowerW())
	}
}

func TestCompletesWithAmpleEnergy(t *testing.T) {
	cfg := DefaultConfig()
	p := NewProcessor(cfg)
	task := NewTask(20000) // 0.1 s of compute
	p.Start(task)
	c := bigCap(0.5)
	completed := false
	steps := 0
	for !completed && steps < 1000 {
		completed = p.Step(c, 0.01)
		steps++
	}
	if !completed {
		t.Fatal("task never completed with ample energy")
	}
	// 20000 MACs at 200k/s = 0.1s = 10 steps of 10ms.
	if steps != 10 {
		t.Fatalf("completed in %d steps, want 10", steps)
	}
	if p.Stats().Completed != 1 || p.Stats().Emergencies != 0 {
		t.Fatalf("stats = %+v", p.Stats())
	}
	// Energy drawn matches the model.
	_, consumed, _ := c.Stats()
	if math.Abs(consumed-40e-6) > 1e-12 {
		t.Fatalf("consumed = %v, want 40 µJ", consumed)
	}
}

func TestStepReturnsTrueExactlyOnce(t *testing.T) {
	p := NewProcessor(DefaultConfig())
	p.Start(NewTask(1000))
	c := bigCap(0.5)
	trues := 0
	for i := 0; i < 50; i++ {
		if p.Step(c, 0.01) {
			trues++
		}
	}
	if trues != 1 {
		t.Fatalf("Step returned true %d times, want 1", trues)
	}
	if p.Busy() {
		t.Fatal("processor still busy after completion")
	}
}

func TestNVPSurvivesPowerEmergency(t *testing.T) {
	cfg := DefaultConfig()
	p := NewProcessor(cfg)
	task := NewTask(20000) // needs 40 µJ
	p.Start(task)
	// Store with only 15 µJ available: brown-out mid-task.
	c := energy.NewCapacitor(200e-6, 0, 5e-6, 20e-6)
	for i := 0; i < 20; i++ {
		p.Step(c, 0.01)
	}
	if p.Stats().Emergencies == 0 {
		t.Fatal("expected a power emergency")
	}
	progressAfterEmergency := task.Progress()
	if progressAfterEmergency <= 0 {
		t.Fatal("NVP should retain partial progress")
	}
	// Recharge and finish.
	c.Harvest(1e-3, 0.2) // +200 µJ
	completed := false
	for i := 0; i < 100 && !completed; i++ {
		completed = p.Step(c, 0.01)
	}
	if !completed {
		t.Fatal("task did not finish after recharge")
	}
	if p.Stats().Restores == 0 {
		t.Fatal("expected a restore after recharge")
	}
}

func TestVolatileLosesProgress(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Volatile = true
	p := NewProcessor(cfg)
	task := NewTask(20000)
	p.Start(task)
	c := energy.NewCapacitor(200e-6, 0, 5e-6, 20e-6)
	for i := 0; i < 20; i++ {
		p.Step(c, 0.01)
	}
	if p.Stats().Emergencies == 0 {
		t.Fatal("expected a power emergency")
	}
	if task.Progress() != 0 {
		t.Fatalf("volatile processor retained progress %v", task.Progress())
	}
	if p.Stats().MACsWasted == 0 {
		t.Fatal("volatile restart should record wasted MACs")
	}
}

func TestNVPBeatsVolatileUnderIntermittentPower(t *testing.T) {
	// Identical bursty supply; NVP finishes, volatile thrashes.
	run := func(volatile bool) (completed int) {
		cfg := DefaultConfig()
		cfg.Volatile = volatile
		p := NewProcessor(cfg)
		p.Start(NewTask(20000))
		c := energy.NewCapacitor(60e-6, 0, 2e-6, 0)
		for i := 0; i < 4000; i++ {
			// 20 ms of charge at 1 mW every 100 ms: duty-cycled supply
			// delivering 0.2 mW average, below the 0.4 mW active power.
			if i%10 < 2 {
				c.Harvest(1e-3, 0.01)
			} else {
				c.Harvest(0, 0.01)
			}
			if p.Step(c, 0.01) {
				completed++
				p.Start(NewTask(20000))
			}
		}
		return completed
	}
	nvpDone := run(false)
	volDone := run(true)
	if nvpDone == 0 {
		t.Fatal("NVP completed nothing under intermittent power")
	}
	if volDone >= nvpDone {
		t.Fatalf("volatile (%d) should complete fewer tasks than NVP (%d)", volDone, nvpDone)
	}
}

func TestAbortCountsAndClears(t *testing.T) {
	p := NewProcessor(DefaultConfig())
	p.Start(NewTask(1000))
	p.Abort()
	if p.Busy() {
		t.Fatal("busy after abort")
	}
	if p.Stats().Aborted != 1 {
		t.Fatalf("aborted = %d, want 1", p.Stats().Aborted)
	}
	// Starting over an unfinished task also counts as an abort.
	p.Start(NewTask(1000))
	p.Start(NewTask(1000))
	if p.Stats().Aborted != 2 {
		t.Fatalf("aborted = %d, want 2", p.Stats().Aborted)
	}
}

func TestStepIdleIsNoop(t *testing.T) {
	p := NewProcessor(DefaultConfig())
	c := bigCap(0.5)
	if p.Step(c, 0.01) {
		t.Fatal("idle Step returned true")
	}
	_, consumed, _ := c.Stats()
	if consumed != 0 {
		t.Fatal("idle Step consumed energy")
	}
}

// prop: total useful MACs executed never exceeds energy drawn divided by
// energy-per-MAC (no free work), under any supply pattern.
func TestNoFreeWorkQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRng(seed)
		cfg := DefaultConfig()
		cfg.Volatile = rng.Intn(2) == 0
		p := NewProcessor(cfg)
		p.Start(NewTask(5000 + float64(rng.Intn(30000))))
		c := energy.NewCapacitor(100e-6, 0.2e-6, 2e-6, rng.Float64()*50e-6)
		for i := 0; i < 500; i++ {
			c.Harvest(rng.Float64()*600e-6, 0.01)
			if p.Step(c, 0.01) {
				p.Start(NewTask(5000 + float64(rng.Intn(30000))))
			}
		}
		_, consumed, _ := c.Stats()
		// consumed includes checkpoint/restore overheads, so executed work
		// must be bounded by consumed / energyPerMAC.
		return p.Stats().MACsExecuted*cfg.EnergyPerMAC <= consumed+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkProcessorStep(b *testing.B) {
	p := NewProcessor(DefaultConfig())
	p.Start(NewTask(1e12))
	c := bigCap(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Harvest(1e-3, 0.01)
		p.Step(c, 0.01)
	}
}

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestLayerTaskBoundaries(t *testing.T) {
	task := NewLayerTask([]float64{100, 0, 200, 300}, 50)
	if task.TotalMACs != 650 {
		t.Fatalf("total = %v, want 650", task.TotalMACs)
	}
	want := []float64{150, 350, 650}
	if len(task.Boundaries) != len(want) {
		t.Fatalf("boundaries = %v", task.Boundaries)
	}
	for i, b := range want {
		if task.Boundaries[i] != b {
			t.Fatalf("boundary %d = %v, want %v", i, task.Boundaries[i], b)
		}
	}
}

func TestLayerTaskValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewLayerTask(nil, 0) },
		func() { NewLayerTask([]float64{-1}, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestLayerGranularityRollsBackPartialLayer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Granularity = GranularityLayer
	p := NewProcessor(cfg)
	// One 2000-MAC layer then one 18000-MAC layer.
	task := NewLayerTask([]float64{2000, 18000}, 0)
	p.Start(task)
	// Enough energy for 5000 MACs (10 µJ above brown-out): finishes layer 1
	// (2000) plus 3000 MACs into layer 2, then browns out and rolls back.
	c := energy.NewCapacitor(200e-6, 0, 5e-6, 15e-6)
	for i := 0; i < 20; i++ {
		p.Step(c, 0.01)
	}
	if p.Stats().Emergencies == 0 {
		t.Fatal("expected a power emergency")
	}
	if got := task.Progress() * task.TotalMACs; got != 2000 {
		t.Fatalf("progress after rollback = %v MACs, want 2000 (layer boundary)", got)
	}
	if p.Stats().MACsWasted == 0 {
		t.Fatal("partial-layer work should be recorded as wasted")
	}
	// Recharge: completes from the boundary, not from scratch.
	c.Harvest(1e-3, 0.1)
	done := false
	for i := 0; i < 200 && !done; i++ {
		done = p.Step(c, 0.01)
	}
	if !done {
		t.Fatal("task did not finish after recharge")
	}
}

func TestGranularityOrderingUnderIntermittentPower(t *testing.T) {
	// Continuous ≥ layer-boundary ≥ volatile completions under the same
	// duty-cycled supply.
	run := func(cfg Config) int {
		p := NewProcessor(cfg)
		newTask := func() *Task {
			if cfg.Granularity == GranularityLayer {
				return NewLayerTask([]float64{5000, 10000, 5000}, 0)
			}
			return NewTask(20000)
		}
		p.Start(newTask())
		c := energy.NewCapacitor(60e-6, 0, 2e-6, 0)
		completed := 0
		for i := 0; i < 4000; i++ {
			if i%10 < 2 {
				c.Harvest(1e-3, 0.01)
			} else {
				c.Harvest(0, 0.01)
			}
			if p.Step(c, 0.01) {
				completed++
				p.Start(newTask())
			}
		}
		return completed
	}
	cont := DefaultConfig()
	layer := DefaultConfig()
	layer.Granularity = GranularityLayer
	// Coarse-grained checkpoints need turn-on hysteresis: resuming on a
	// trickle burns energy on partial-layer work that rolls back.
	layer.ResumeThresholdJ = 30e-6
	vol := DefaultConfig()
	vol.Volatile = true
	nCont, nLayer, nVol := run(cont), run(layer), run(vol)
	if nCont < nLayer {
		t.Fatalf("continuous (%d) should complete at least as many as layer (%d)", nCont, nLayer)
	}
	if nLayer < nVol {
		t.Fatalf("layer (%d) should complete at least as many as volatile (%d)", nLayer, nVol)
	}
	if nLayer == 0 {
		t.Fatal("layer granularity completed nothing")
	}
}

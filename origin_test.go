package origin

import (
	"os"
	"path/filepath"
	"testing"
)

// The facade tests exercise the public API end to end — what a downstream
// user of the library actually calls.

func TestFacadeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("system training in -short mode")
	}
	sys := BuildSystem("MHEALTH")
	res := RunPolicy(sys, RunOpts{Width: 12, Kind: PolicyOrigin, Slots: 2000, Seed: 3})
	if res.RoundAccuracy() <= 0.4 {
		t.Fatalf("Origin accuracy = %v implausibly low", res.RoundAccuracy())
	}
	base := RunBaseline(sys, "B2", 2000, 3)
	if base.RoundAccuracy() <= 0.4 {
		t.Fatalf("baseline accuracy = %v implausibly low", base.RoundAccuracy())
	}
	if res.Slots != 2000 || base.Slots != 2000 {
		t.Fatalf("slots = %d/%d", res.Slots, base.Slots)
	}
}

func TestFacadeUsers(t *testing.T) {
	u0 := NewUser(0)
	u1 := NewUser(1)
	if u0 == nil || u1 == nil {
		t.Fatal("NewUser returned nil")
	}
}

func TestFacadeTrace(t *testing.T) {
	tr := GenerateTrace(30, 5)
	if tr.Len() != 3000 {
		t.Fatalf("trace length = %d", tr.Len())
	}
	if tr.Mean() <= 0 {
		t.Fatal("trace mean should be positive")
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := tr.SaveCSVFile(path); err != nil {
		t.Fatalf("SaveCSVFile: %v", err)
	}
	back, err := LoadTraceCSV(path)
	if err != nil {
		t.Fatalf("LoadTraceCSV: %v", err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("round trip length %d != %d", back.Len(), tr.Len())
	}
}

func TestFacadePolicyKinds(t *testing.T) {
	if PolicyOrigin.String() != "Origin" || PolicyERr.String() != "ER-r" {
		t.Fatal("policy kind names wrong through the facade")
	}
}

func TestMain(m *testing.M) {
	// Keep the model cache shared with the experiments package tests.
	os.Exit(m.Run())
}

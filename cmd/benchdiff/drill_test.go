package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"origin/internal/obs"
)

// dayReport is a chaos-and-pressure day that passed every bar: faults and
// pressure both fired, nothing was lost, all resumes landed.
func dayReport() obs.SLOReport {
	return obs.SLOReport{
		Canonical: obs.SLOCanonical{
			Name: "day", Profile: "MHEALTH", Seed: 5,
			Lineages: 11, ColdStarts: 8, Retired: 8, TotalRounds: 238,
			Phases: []obs.SLOPhase{
				{Name: "rush", Users: 6, Rounds: 10, TotalRounds: 60, Pressure: true, Correct: 50, Accuracy: 50.0 / 60},
				{Name: "storm", Users: 5, Rounds: 10, TotalRounds: 50, Chaos: true, Correct: 40, Accuracy: 0.8},
			},
			Accuracy: obs.SLOAccuracy{Overall: 0.8, Calm: 0.82, Drift: 0.75, CalmRounds: 180, DriftRounds: 58},
			Digest:   "abc123",
		},
		Measured: obs.SLOMeasured{
			DurationS: 1.2, OK: 238, Shed: 9, Reconnects: 3, ResumeAttempts: 3,
			ResumeSuccessRate: 1.0, Availability: 0.995, ShedRate: 9.0 / 247,
		},
	}
}

// shardReport is a shard day that passed every bar: the planned kill and
// join both fired and sessions migrated. Its 0.98 availability clears the
// shard plan's 0.9 floor but not the 0.99 one.
func shardReport() obs.SLOReport {
	return obs.SLOReport{
		Canonical: obs.SLOCanonical{
			Name: "shard", Profile: "MHEALTH", Seed: 13,
			Lineages: 6, ColdStarts: 2, Retired: 2, TotalRounds: 136,
			Phases: []obs.SLOPhase{
				{Name: "steady", Users: 4, Rounds: 8, TotalRounds: 32, Correct: 25, Accuracy: 25.0 / 32},
				{Name: "shard-crash", Users: 4, Rounds: 8, TotalRounds: 32, ShardOps: []string{"kill"}, Correct: 24, Accuracy: 0.75},
				{Name: "shard-join", Users: 5, Rounds: 8, TotalRounds: 40, ShardOps: []string{"join"}, Correct: 30, Accuracy: 0.75},
			},
			Accuracy: obs.SLOAccuracy{Overall: 0.75, Calm: 0.75, CalmRounds: 136},
			Digest:   "shard123",
		},
		Measured: obs.SLOMeasured{
			DurationS: 0.8, OK: 136, Reconnects: 2, ResumeAttempts: 2,
			ResumeSuccessRate: 1.0, Availability: 0.98,
			ShardKills: 1, ShardJoins: 1, MigratedResumes: 2,
		},
	}
}

func writeSLOReport(t *testing.T, rep obs.SLOReport) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "slo.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// chaosReport is the day with its pressure phase dropped: a drill whose
// only fault is connection chaos, held to the 0.99 availability floor.
func chaosReport() obs.SLOReport {
	rep := dayReport()
	rep.Canonical.Phases = rep.Canonical.Phases[1:]
	rep.Measured.Shed, rep.Measured.ShedRate = 0, 0
	return rep
}

func TestSLOVerifyPasses(t *testing.T) {
	if err := cmdDrillVerify([]string{writeSLOReport(t, dayReport())}); err != nil {
		t.Fatalf("clean day drill rejected: %v", err)
	}
}

func TestChaosVerifyPasses(t *testing.T) {
	if err := cmdDrillVerify([]string{writeSLOReport(t, chaosReport())}); err != nil {
		t.Fatalf("clean chaos drill rejected: %v", err)
	}
}

func TestShardVerifyPasses(t *testing.T) {
	if err := cmdDrillVerify([]string{writeSLOReport(t, shardReport())}); err != nil {
		t.Fatalf("clean shard drill rejected: %v", err)
	}
}

// mutation is one row of drill-verify's mutation table: a passing report
// changed so that exactly one bar, the one whose message holds want, fails.
type mutation struct {
	name   string
	mutate func(*obs.SLOReport)
	want   string
}

func checkMutations(t *testing.T, base func() obs.SLOReport, table []mutation) {
	t.Helper()
	for _, tc := range table {
		t.Run(tc.name, func(t *testing.T) {
			rep := base()
			tc.mutate(&rep)
			if fails := drillViolations(&rep); len(fails) != 1 || !strings.Contains(fails[0], tc.want) {
				t.Fatalf("violations %q, want exactly one mentioning %q", fails, tc.want)
			}
			if err := cmdDrillVerify([]string{writeSLOReport(t, rep)}); err == nil {
				t.Fatal("drill-verify accepted the report")
			}
		})
	}
}

// TestSLOVerifyRejects covers the pressure bars of the day drill, and the
// rejection of a report that is not an SLO report at all.
func TestSLOVerifyRejects(t *testing.T) {
	checkMutations(t, dayReport, []mutation{
		{"heavy shedding", func(r *obs.SLOReport) { r.Measured.ShedRate = 0.26 }, "shed rate"},
		{"vacuous pressure", func(r *obs.SLOReport) { r.Measured.Shed, r.Measured.ShedRate = 0, 0 }, "nothing shed"},
	})
	err := cmdDrillVerify([]string{writeSLOReport(t, obs.SLOReport{})})
	if err == nil || !strings.Contains(err.Error(), "not an SLO report") {
		t.Fatalf("empty report: error %v, want a not-an-SLO-report rejection", err)
	}
}

// TestChaosVerifyRejects covers the bars a connection-chaos drill must clear.
func TestChaosVerifyRejects(t *testing.T) {
	checkMutations(t, chaosReport, []mutation{
		{"lost rounds", func(r *obs.SLOReport) { r.Measured.OK = 237 }, "lost rounds"},
		{"double classify", func(r *obs.SLOReport) { r.Measured.DoubleClassifies = 1 }, "double-classified"},
		{"availability below 0.99", func(r *obs.SLOReport) { r.Measured.Availability = 0.985 }, "availability"},
		{"vacuous chaos", func(r *obs.SLOReport) { r.Measured.Reconnects = 0 }, "no reconnects"},
	})
}

// TestShardVerifyRejects covers the bars a shard-topology drill must clear.
func TestShardVerifyRejects(t *testing.T) {
	checkMutations(t, shardReport, []mutation{
		{"errors", func(r *obs.SLOReport) { r.Measured.Errors = 1 }, "lost rounds"},
		{"resume miss", func(r *obs.SLOReport) { r.Measured.ResumeMisses = 1; r.Measured.ResumeSuccessRate = 0.5 }, "resume success rate"},
		{"availability below 0.9 on a shard plan", func(r *obs.SLOReport) { r.Measured.Availability = 0.89 }, "availability"},
		{"shard no kill", func(r *obs.SLOReport) { r.Measured.ShardKills = 0 }, "no replica went down"},
		{"shard no leave", func(r *obs.SLOReport) {
			r.Canonical.Phases[1].ShardOps = []string{"leave"}
			r.Measured.ShardKills = 0
		}, "no replica went down"},
		{"shard no join", func(r *obs.SLOReport) { r.Measured.ShardJoins = 0 }, "no replica joined"},
		{"shard nothing migrated", func(r *obs.SLOReport) { r.Measured.MigratedResumes = 0 }, "no session migrated"},
	})
}

// The bars come from the report's own plan; no flag can move them.
func TestSLOVerifyFlags(t *testing.T) {
	path := writeSLOReport(t, dayReport())
	for _, flag := range []string{"-max-shed-rate", "-min-accuracy"} {
		if err := cmdDrillVerify([]string{flag, "0.5", path}); err == nil {
			t.Errorf("drill-verify accepted %s", flag)
		}
	}
	if err := cmdDrillVerify([]string{path, path, path}); err == nil {
		t.Error("drill-verify accepted three reports")
	}
}

// A chaos drill's availability floor is a fixed 0.99: 0.95 fails it, and
// the old -min-availability flag that could relax it is refused.
func TestChaosVerifyMinAvailabilityFlag(t *testing.T) {
	rep := chaosReport()
	rep.Measured.Availability = 0.95
	path := writeSLOReport(t, rep)
	if err := cmdDrillVerify([]string{path}); err == nil {
		t.Fatal("0.95 availability passed the 0.99 bar")
	}
	if err := cmdDrillVerify([]string{"-min-availability", "0.9", path}); err == nil {
		t.Fatal("drill-verify accepted -min-availability")
	}
}

// A shard plan lowers the availability floor to exactly 0.9, and only the
// plan does: the shard report's 0.98 fails the moment its shard ops are
// dropped, and neither -min-availability nor -min-migrated is accepted.
func TestShardVerifyFlags(t *testing.T) {
	path := writeSLOReport(t, shardReport())
	for _, flag := range []string{"-min-availability", "-min-migrated"} {
		if err := cmdDrillVerify([]string{flag, "1", path}); err == nil {
			t.Errorf("drill-verify accepted %s", flag)
		}
	}
	rep := shardReport()
	rep.Measured.Availability = 0.9
	if fails := drillViolations(&rep); len(fails) != 0 {
		t.Fatalf("0.9 availability on a shard plan gave violations %q", fails)
	}
	rep = shardReport()
	for i := range rep.Canonical.Phases {
		rep.Canonical.Phases[i].ShardOps = nil
	}
	if fails := drillViolations(&rep); len(fails) != 1 || !strings.Contains(fails[0], "availability") {
		t.Fatalf("0.98 availability without shard ops gave violations %q, want exactly the availability bar", fails)
	}
}

// checkTwin pins the twin comparison: canonical sections must match byte
// for byte, while the twin's measured half — other timings, even no
// kills — is free to differ.
func checkTwin(t *testing.T, base func() obs.SLOReport) {
	t.Helper()
	a, twin, diverged := base(), base(), base()
	twin.Measured = obs.SLOMeasured{DurationS: 99, OK: a.Measured.OK, ResumeSuccessRate: 1, Availability: 1}
	if err := cmdDrillVerify([]string{writeSLOReport(t, a), writeSLOReport(t, twin)}); err != nil {
		t.Errorf("%s: matching canonical sections rejected: %v", a.Canonical.Name, err)
	}
	diverged.Canonical.Digest = "other"
	if fails := drillViolations(&a, &diverged); len(fails) != 1 || !strings.Contains(fails[0], "twin") {
		t.Errorf("%s: diverged twin gave violations %q, want exactly the canonical mismatch", a.Canonical.Name, fails)
	}
	if err := cmdDrillVerify([]string{writeSLOReport(t, a), writeSLOReport(t, diverged)}); err == nil {
		t.Errorf("%s: diverged canonical sections accepted", a.Canonical.Name)
	}
}

// The same-seed twin pins determinism.
func TestSLOVerifyDeterminismPair(t *testing.T) { checkTwin(t, dayReport) }

// On a shard plan the twin pins topology invariance: the kill and join
// must not reach a classification.
func TestShardVerifyTopologyInvariancePair(t *testing.T) { checkTwin(t, shardReport) }

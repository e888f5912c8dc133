package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"origin/internal/obs"
)

// Drill gating (drill-verify).
//
// A drill is a scenario run (cmd/origin-scenario) whose plan injects
// faults: connection chaos, serve pressure, or shard-topology changes. The
// standing invariant is the same for all of them — every fault path yields
// the classes of a fault-free run — so one gate holds every drill's SLO
// report to one set of bars, and reads which anti-vacuity bars apply from
// the plan recorded in the report's canonical phases. It takes no flags:
//
//   - every planned round classified exactly once: no errors, no lost
//     rounds, no double classifications;
//   - every attempted resume honoured;
//   - availability at least 0.99, or 0.9 when the plan changes shard
//     topology (a crashed replica's sessions wait out a redial and a
//     restore from the state store);
//   - shed rate at most 0.25;
//   - anti-vacuity: a chaos phase needs a reconnect, a pressure phase a
//     shed, a kill or leave op a killed replica, a join op a joined one,
//     and any shard op a session resumed across a shard boundary.
//
// Given a second report from a same-seed run, the two canonical sections
// must also be byte-identical: the engine is deterministic, and the
// canonical half is topology-blind, so neither timing nor shard moves may
// reach a classification.

const (
	minAvailability      = 0.99
	minShardAvailability = 0.9
	maxShedRate          = 0.25
)

func cmdDrillVerify(args []string) error {
	paths, err := parseFlags(args, nil)
	if err != nil {
		return err
	}
	if len(paths) < 1 || len(paths) > 2 {
		return fmt.Errorf("drill-verify needs one SLO report (plus an optional same-seed twin)")
	}
	reps := make([]*obs.SLOReport, len(paths))
	for i, path := range paths {
		if reps[i], err = readSLOReport(path); err != nil {
			return err
		}
	}
	c, m := &reps[0].Canonical, &reps[0].Measured
	fmt.Printf("benchdiff: drill %q seed=%d ok=%d/%d errors=%d double-classifies=%d resume=%d/%d availability=%.4f shed=%d (rate %.4f) reconnects=%d kills=%d joins=%d migrated=%d\n",
		c.Name, c.Seed, m.OK, c.TotalRounds, m.Errors, m.DoubleClassifies,
		m.ResumeAttempts-m.ResumeMisses, m.ResumeAttempts, m.Availability,
		m.Shed, m.ShedRate, m.Reconnects, m.ShardKills, m.ShardJoins, m.MigratedResumes)
	fails := drillViolations(reps[0], reps[1:]...)
	if len(fails) > 0 {
		return fmt.Errorf("drill %q failed %d bar(s):\n  %s", c.Name, len(fails), strings.Join(fails, "\n  "))
	}
	if len(reps) == 2 {
		fmt.Printf("benchdiff: drill canonical sections byte-identical across runs (digest %s)\n", c.Digest)
	}
	return nil
}

// drillViolations lists every bar rep fails, plus a canonical mismatch
// against the optional twin.
func drillViolations(rep *obs.SLOReport, twin ...*obs.SLOReport) []string {
	c, m := &rep.Canonical, &rep.Measured
	var chaos, pressure, kill, join, shard bool
	for _, p := range c.Phases {
		chaos = chaos || p.Chaos
		pressure = pressure || p.Pressure
		for _, op := range p.ShardOps {
			shard = true
			kill = kill || op == "kill" || op == "leave"
			join = join || op == "join"
		}
	}
	minAvail := minAvailability
	if shard {
		minAvail = minShardAvailability
	}

	var fails []string
	fail := func(format string, args ...any) { fails = append(fails, fmt.Sprintf(format, args...)) }
	if m.OK != c.TotalRounds || m.Errors != 0 {
		fail("lost rounds: ok=%d want=%d errors=%d", m.OK, c.TotalRounds, m.Errors)
	}
	if m.DoubleClassifies != 0 {
		fail("%d round(s) double-classified across reconnects", m.DoubleClassifies)
	}
	if m.ResumeSuccessRate != 1.0 {
		fail("resume success rate %.4f, want 1.0 (%d miss(es) in %d attempts)",
			m.ResumeSuccessRate, m.ResumeMisses, m.ResumeAttempts)
	}
	if m.Availability < minAvail {
		fail("availability %.4f below required %.4f", m.Availability, minAvail)
	}
	if m.ShedRate > maxShedRate {
		fail("shed rate %.4f above allowed %.4f", m.ShedRate, maxShedRate)
	}
	if chaos && m.Reconnects < 1 {
		fail("chaos planned but no reconnects: the faults never fired, the gate is vacuous")
	}
	if pressure && m.Shed < 1 {
		fail("pressure planned but nothing shed: the pressure never bit, the gate is vacuous")
	}
	if kill && m.ShardKills < 1 {
		fail("kill or leave planned but no replica went down: the gate is vacuous")
	}
	if join && m.ShardJoins < 1 {
		fail("join planned but no replica joined: the gate never saw a rebalance")
	}
	if shard && m.MigratedResumes < 1 {
		fail("shard ops planned but no session migrated: the topology changes moved nothing")
	}
	for _, t := range twin {
		a, errA := rep.CanonicalBytes()
		b, errB := t.CanonicalBytes()
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			fail("canonical sections differ from the same-seed twin (digest %s vs %s): the run is non-deterministic or topology leaked into classifications",
				c.Digest, t.Canonical.Digest)
		}
	}
	return fails
}

func readSLOReport(path string) (*obs.SLOReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep obs.SLOReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Canonical.Name == "" || rep.Canonical.TotalRounds == 0 {
		return nil, fmt.Errorf("%s: not an SLO report (empty canonical section)", path)
	}
	return &rep, nil
}

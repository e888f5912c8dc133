package scenario_test

import (
	"reflect"
	"testing"

	"origin/internal/cluster"
	"origin/internal/fleet"
	"origin/internal/fleet/fleettest"
	"origin/internal/scenario"
)

// newShardStack stands up a 3-replica in-process cluster and returns the
// handles a sharded scenario drives: the router's fronts plus the topology
// handle.
func newShardStack(t *testing.T) (scenario.Handles, *cluster.Cluster) {
	t.Helper()
	cl, err := cluster.New(cluster.Config{
		Replicas: 3,
		Registry: fleettest.NewRegistry(),
		Store:    fleet.NewMemStateStore(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return scenario.Handles{
		BaseURL:    cl.HTTPURL(),
		StreamAddr: cl.StreamAddr(),
		Cluster:    cl,
	}, cl
}

// prop (ISSUE acceptance): the built-in shard day — a replica crash and a
// fresh join mid-run, every lineage on the stream front — finishes with zero
// lost rounds, a clean resume protocol, at least one session migrated across
// a shard boundary, and per-lineage sequences byte-identical to the
// single-node serial replayer. Runs in CI under -race via the race job's stress step.
func TestShardScenarioMatchesSerialReplay(t *testing.T) {
	spec, err := scenario.ShardScenario("MHEALTH", 13)
	if err != nil {
		t.Fatal(err)
	}
	h, cl := newShardStack(t)
	res, err := scenario.Run(spec, h)
	if err != nil {
		t.Fatalf("shard scenario: %v", err)
	}
	c, m := &res.Report.Canonical, &res.Report.Measured
	t.Logf("shard day: replicas=%v kills=%d joins=%d migratedResumes=%d reconnects=%d resumeAttempts=%d",
		cl.Replicas(), m.ShardKills, m.ShardJoins, m.MigratedResumes, m.Reconnects, m.ResumeAttempts)

	if m.OK != c.TotalRounds || m.Errors != 0 {
		t.Fatalf("rounds lost under shard chaos: ok=%d errors=%d want %d", m.OK, m.Errors, c.TotalRounds)
	}
	if m.ResumeMisses != 0 || m.DoubleClassifies != 0 {
		t.Fatalf("resume protocol violated: misses=%d doubleClassifies=%d", m.ResumeMisses, m.DoubleClassifies)
	}
	if m.ShardKills != 1 || m.ShardJoins != 1 {
		t.Fatalf("topology ops miscounted: kills=%d joins=%d want 1/1", m.ShardKills, m.ShardJoins)
	}
	if m.MigratedResumes == 0 {
		t.Fatal("no session resumed across a shard boundary — the kill migrated nothing")
	}
	if got := len(cl.Replicas()); got != 3 {
		t.Fatalf("cluster ended with %d replicas, want 3 (3 - 1 killed + 1 joined)", got)
	}

	want, err := scenario.SerialReplay(spec, fleettest.NewModel)
	if err != nil {
		t.Fatalf("serial replay: %v", err)
	}
	for i := range want {
		if !reflect.DeepEqual(res.Lineages[i], want[i]) {
			t.Errorf("lineage %d diverged from serial replay:\n live   %+v\n replay %+v",
				i, res.Lineages[i], want[i])
		}
	}
}

// prop: a graceful leave migrates sessions exactly like a crash — the store
// is authoritative either way — and a spec with shard ops refuses to run
// without a cluster handle.
func TestShardLeaveAndHandleValidation(t *testing.T) {
	spec := &scenario.Spec{
		Name: "leave", Profile: "MHEALTH", Seed: 5, StreamFraction: 1,
		Phases: []scenario.Phase{
			{Name: "steady", Users: 3, Rounds: 6},
			{Name: "drain", Users: 3, Rounds: 6,
				ShardOps: []scenario.ShardOp{{Op: "leave"}}},
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := scenario.Run(spec, scenario.Handles{BaseURL: "http://127.0.0.1:1", StreamAddr: "127.0.0.1:1"}); err == nil {
		t.Fatal("shard spec accepted without a cluster handle")
	}
	h, cl := newShardStack(t)
	res, err := scenario.Run(spec, h)
	if err != nil {
		t.Fatalf("leave scenario: %v", err)
	}
	m := &res.Report.Measured
	if m.OK != res.Report.Canonical.TotalRounds || m.Errors != 0 {
		t.Fatalf("rounds lost across graceful leave: ok=%d errors=%d", m.OK, m.Errors)
	}
	if m.MigratedResumes == 0 {
		t.Fatal("graceful leave migrated nothing")
	}
	if got := len(cl.Replicas()); got != 2 {
		t.Fatalf("cluster ended with %d replicas, want 2", got)
	}
}

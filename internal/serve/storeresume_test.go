package serve_test

import (
	"encoding/binary"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"origin/internal/comm"
	"origin/internal/fleet"
	"origin/internal/fleet/fleettest"
	"origin/internal/serve"
)

// Cross-replica resume: two stream servers over independent managers that
// share one state store — the in-process shape of two serving replicas. A
// client streams rounds to replica A, A dies, and the client presents its
// resume token to replica B, which has never seen the session. B must adopt
// the session (core state and stream lineage) from the store and continue
// the classification sequence exactly where A stopped.

// replicaStack is one replica: its own manager and stream server over the
// shared registry and store.
func replicaStack(t *testing.T, reg *fleet.Registry, store fleet.StateStore) (*streamStack, *serve.StreamServer) {
	t.Helper()
	mgr := fleet.NewManager(fleet.Config{Registry: reg, QueueDepth: 64, Workers: 2, State: store})
	metrics := &serve.Metrics{}
	ss := serve.NewStreamServer(serve.StreamConfig{
		Manager: mgr, Metrics: metrics,
		RoundTimeout: 30 * time.Second, IdleTimeout: 30 * time.Second,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = ss.Serve(ln) }()
	t.Cleanup(func() {
		ss.Close()
		mgr.Close()
	})
	return &streamStack{mgr: mgr, metrics: metrics, addr: ln.Addr().String()}, ss
}

func TestStreamStoreResumeAcrossReplicas(t *testing.T) {
	reg := fleettest.NewRegistry()
	store := fleet.NewMemStateStore()
	a, ssA := replicaStack(t, reg, store)
	b, _ := replicaStack(t, reg, store)

	sess, err := a.mgr.CreateWithID("r-1", "MHEALTH", 7, fleet.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	window := sess.Model().Window

	conn, br, ack := a.dialAck(t, "r-1")
	if ack.Resumed || ack.Token == "" {
		t.Fatalf("fresh ack: %+v", ack)
	}
	// Two full rounds on A, plus a mid-round frame (sensor 1 opens round 2)
	// so the migrated lineage carries ring state and round order.
	if _, err := conn.Write(imuFrame(t, 0, 0, window, true)); err != nil {
		t.Fatal(err)
	}
	res0 := readResult(t, br)
	if _, err := conn.Write(imuFrame(t, 0, 1, 16, true)); err != nil {
		t.Fatal(err)
	}
	res1 := readResult(t, br)
	if res0.Slot != 0 || res1.Slot != 1 {
		t.Fatalf("rounds on A answered slots %d,%d", res0.Slot, res1.Slot)
	}
	if _, err := conn.Write(imuFrame(t, 1, 0, window, false)); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, a.metrics.StreamFrames.Load, 3, "stream frames on A")
	// A "dies" with the connection attached. Snapshots are written per
	// classified round, so the in-flight mid-round frame is lost with A;
	// B's hello-ack NextSeqs must tell the client to re-send it.
	ssA.Close()

	connB, brB, ackB := b.dialAck(t, "r-1", ack.Token)
	if !ackB.Resumed || ackB.Token != ack.Token {
		t.Fatalf("store resume ack: %+v", ackB)
	}
	if ackB.NextSlot != 2 || !ackB.HasLast || ackB.LastClass != res1.Class {
		t.Fatalf("store resume ack does not carry A's progress: %+v (res1=%+v)", ackB, res1)
	}
	if b.metrics.StreamStoreResumes.Load() != 1 {
		t.Fatalf("StreamStoreResumes = %d, want 1", b.metrics.StreamStoreResumes.Load())
	}
	// The persisted lineage is from round 1's snapshot: sensor 1's unfinished
	// frame was in flight, so B's acks tell the client to re-send from seq 0.
	if ackB.NextSeqs[0] != 2 || ackB.NextSeqs[1] != 0 {
		t.Fatalf("store resume seqs %v, want [2 0 ...]", ackB.NextSeqs)
	}
	// Re-send the lost frame and finish round 2 on B.
	if _, err := connB.Write(imuFrame(t, 1, 0, window, false)); err != nil {
		t.Fatal(err)
	}
	if _, err := connB.Write(imuFrame(t, 0, 2, 16, true)); err != nil {
		t.Fatal(err)
	}
	if res := readResult(t, brB); res.Slot != 2 {
		t.Fatalf("post-migration round answered slot %d, want 2", res.Slot)
	}
	// B's manager restored the session (not re-created it): counters travel.
	bs, err := b.mgr.Get("r-1")
	if err != nil {
		t.Fatal(err)
	}
	// 3 rounds, 4 sensor inputs (rounds 0 and 1 carried one sensor each,
	// round 2 carried two) — and A's share of both counters came from the
	// store, not from B observing A's traffic.
	if info := bs.Info(); info.Slots != 3 || info.Received != 4 {
		t.Fatalf("migrated session info %+v, want 3 slots / 4 received", info)
	}
	if b.mgr.Snapshot().SessionsRestored == 0 {
		t.Fatal("B absorbed the migration without counting a restore")
	}
}

// TestStreamStoreResumeTokenMismatch: a wrong token must miss even when the
// store holds the session — the token is the proof of lineage ownership.
func TestStreamStoreResumeTokenMismatch(t *testing.T) {
	reg := fleettest.NewRegistry()
	store := fleet.NewMemStateStore()
	a, ssA := replicaStack(t, reg, store)
	b, _ := replicaStack(t, reg, store)
	if _, err := a.mgr.CreateWithID("r-2", "MHEALTH", 1, fleet.Opts{}); err != nil {
		t.Fatal(err)
	}
	conn, br, ack := a.dialAck(t, "r-2")
	window := 0
	if sess, err := a.mgr.Get("r-2"); err == nil {
		window = sess.Model().Window
	}
	if _, err := conn.Write(imuFrame(t, 0, 0, window, true)); err != nil {
		t.Fatal(err)
	}
	readResult(t, br)
	ssA.Close()

	_, brB := b.dial(t, "r-2", ack.Token+"-forged")
	readError(t, brB, comm.StreamErrResume)
	if b.metrics.StreamResumeMisses.Load() != 1 {
		t.Fatalf("forged token: misses = %d, want 1", b.metrics.StreamResumeMisses.Load())
	}
	if b.metrics.StreamStoreResumes.Load() != 0 {
		t.Fatal("forged token must not count as a store resume")
	}
}

// TestStreamHelloCorruptStateFile: a session whose .session file is shorter
// than its 8-byte version header, or holds a valid header followed by
// garbage, fails Manager.Get with an error (no panic), and a stream hello
// for it gets a session error frame. "live" holds a session in memory at
// slot 0 whose file was overwritten by a newer, corrupt version.
func TestStreamHelloCorruptStateFile(t *testing.T) {
	dir := t.TempDir()
	store, err := fleet.NewFileStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := replicaStack(t, fleettest.NewRegistry(), store)
	if _, err := s.mgr.CreateWithID("live", "MHEALTH", 1, fleet.Opts{}); err != nil {
		t.Fatal(err)
	}
	garbage := append(binary.LittleEndian.AppendUint64(nil, 1), "not a session snapshot"...)
	for id, data := range map[string][]byte{
		"short":   {1, 0, 0},
		"garbage": garbage,
		"live":    garbage,
	} {
		if err := os.WriteFile(filepath.Join(dir, id+".session"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.mgr.Get(id); err == nil {
			t.Errorf("%s: Get restored a corrupt state file", id)
		}
		_, br := s.dial(t, id)
		readError(t, br, comm.StreamErrSession)
	}
}

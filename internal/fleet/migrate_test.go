package fleet

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// storePair builds two managers (replica A and replica B) sharing one state
// store — the in-process shape of two serving replicas behind a router.
func storePair(t *testing.T) (*Manager, *Manager, *MemStateStore) {
	t.Helper()
	st := NewMemStateStore()
	reg := tinyRegistry()
	a := NewManager(Config{Registry: reg, Workers: 1, State: st})
	b := NewManager(Config{Registry: reg, Workers: 1, State: st})
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b, st
}

// roundInputs builds a deterministic classify round for slot i.
func roundInputs(i int) []SensorInput {
	return []SensorInput{
		{Sensor: i % 3, Class: (i * 2) % 5, Confidence: 0.02 + float64(i%7)/50},
		{Sensor: (i + 1) % 3, Class: (i * 3) % 5, Confidence: 0.03 + float64(i%5)/40},
	}
}

// driveRound classifies one round on a manager, which writes the round's
// snapshot to the store before it returns.
func driveRound(t *testing.T, m *Manager, id string, i int) ClassifyResult {
	t.Helper()
	res, err := m.Classify(context.Background(), id, roundInputs(i), nil)
	if err != nil {
		t.Fatalf("round %d: %v", i, err)
	}
	return res
}

// TestManagerMigration proves the externalized-state contract: rounds served
// on replica A, continued on replica B after a simulated A death, classify
// identically to the same rounds served on a single never-migrated session.
func TestManagerMigration(t *testing.T) {
	a, b, _ := storePair(t)

	// Control: one un-migrated session sees all 12 rounds.
	ctrl, err := a.CreateWithID("ctrl", "MHEALTH", 7, Opts{StaleLimit: 4})
	if err != nil {
		t.Fatal(err)
	}
	var want []ClassifyResult
	for i := 0; i < 12; i++ {
		res, err := ctrl.Classify(roundInputs(i))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}

	// Subject: 6 rounds on A, then A "dies" and B adopts from the store.
	if _, err := a.CreateWithID("subj", "MHEALTH", 7, Opts{StaleLimit: 4}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		got := driveRound(t, a, "subj", i)
		if got.Slot != want[i].Slot || got.Class != want[i].Class {
			t.Fatalf("pre-migration round %d: got %+v want %+v", i, got, want[i])
		}
	}
	s, err := b.Get("subj")
	if err != nil {
		t.Fatalf("B.Get after migration: %v", err)
	}
	if s.Slot() != 6 {
		t.Fatalf("restored session at slot %d, want 6", s.Slot())
	}
	if b.Snapshot().SessionsRestored != 1 {
		t.Fatalf("SessionsRestored = %d, want 1", b.Snapshot().SessionsRestored)
	}
	for i := 6; i < 12; i++ {
		got := driveRound(t, b, "subj", i)
		if got.Slot != want[i].Slot || got.Class != want[i].Class {
			t.Fatalf("post-migration round %d: got %+v want %+v", i, got, want[i])
		}
	}

	// Telemetry travelled: B's view of the session includes A's rounds.
	tel := s.Telemetry()
	if tel.Slots != 12 {
		t.Fatalf("migrated telemetry slots = %d, want 12", tel.Slots)
	}
}

// TestManagerStaleCacheRefresh proves local memory is only a cache: when the
// store advances past a replica's in-memory copy (another replica served
// rounds in between), Get discards the stale copy and restores — without
// double-counting the stale copy's telemetry.
func TestManagerStaleCacheRefresh(t *testing.T) {
	a, b, _ := storePair(t)
	if _, err := a.CreateWithID("x", "MHEALTH", 1, Opts{}); err != nil {
		t.Fatal(err)
	}
	driveRound(t, a, "x", 0)
	driveRound(t, a, "x", 1)

	// B adopts and advances; A's in-memory copy is now stale at slot 2.
	if _, err := b.Get("x"); err != nil {
		t.Fatal(err)
	}
	driveRound(t, b, "x", 2)
	driveRound(t, b, "x", 3)

	s, err := a.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if s.Slot() != 4 {
		t.Fatalf("A served slot %d after refresh, want 4", s.Slot())
	}
	// Aggregated telemetry must count each round exactly once despite the
	// session having lived (in some version) on both replicas.
	if tel := a.Telemetry(); tel.Slots != 4 {
		t.Fatalf("A aggregated slots = %d, want 4 (stale copy double-counted?)", tel.Slots)
	}
}

// TestManagerEvictionResurrect proves LRU eviction with a store demotes to
// cache eviction: the session's state survives in the store and the next Get
// restores it.
func TestManagerEvictionResurrect(t *testing.T) {
	st := NewMemStateStore()
	m := NewManager(Config{Registry: tinyRegistry(), Shards: 1, MaxSessions: 1, Workers: 1, State: st})
	defer m.Close()
	if _, err := m.CreateWithID("first", "MHEALTH", 1, Opts{}); err != nil {
		t.Fatal(err)
	}
	driveRound(t, m, "first", 0)
	if _, err := m.CreateWithID("second", "MHEALTH", 2, Opts{}); err != nil {
		t.Fatal(err) // evicts "first" from the 1-session shard
	}
	s, err := m.Get("first")
	if err != nil {
		t.Fatalf("Get after eviction: %v", err)
	}
	if s.Slot() != 1 {
		t.Fatalf("resurrected at slot %d, want 1", s.Slot())
	}
}

func TestManagerCreateWithIDConflictsAndDelete(t *testing.T) {
	a, b, store := storePair(t)
	if _, err := a.CreateWithID("dup", "MHEALTH", 1, Opts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.CreateWithID("dup", "MHEALTH", 1, Opts{}); !errors.Is(err, ErrExists) {
		t.Fatalf("local duplicate: err = %v, want ErrExists", err)
	}
	// The other replica sees the conflict through the store alone.
	if _, err := b.CreateWithID("dup", "MHEALTH", 1, Opts{}); !errors.Is(err, ErrExists) {
		t.Fatalf("cross-replica duplicate: err = %v, want ErrExists", err)
	}
	if _, err := a.CreateWithID("", "MHEALTH", 1, Opts{}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty id: err = %v, want ErrInvalid", err)
	}

	// Delete removes the stored snapshot: no replica can resurrect it.
	if err := a.Delete("dup"); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 0 {
		t.Fatalf("store holds %d sessions after delete, want 0", store.Len())
	}
	if _, err := b.Get("dup"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete: err = %v, want ErrNotFound", err)
	}
	// Deleting a session known only to the store (not local memory) works.
	if _, err := a.CreateWithID("remote", "MHEALTH", 1, Opts{}); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete("remote"); err != nil {
		t.Fatalf("store-only delete: %v", err)
	}
	if err := b.Delete("remote"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: err = %v, want ErrNotFound", err)
	}
}

// prop: a minted id never adopts a stored session. A manager started over
// the state directory an earlier process left behind restarts its id counter
// at s-1; Create must skip the stored ids instead of handing the new wearer
// the old wearer's session.
func TestManagerCreateSkipsStoredIDs(t *testing.T) {
	dir := t.TempDir()
	open := func() *Manager {
		st, err := NewFileStateStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return NewManager(Config{Registry: tinyRegistry(), Workers: 1, State: st})
	}
	a := open()
	old, err := a.Create("MHEALTH", 7, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		driveRound(t, a, old.ID(), i)
	}
	a.Close()

	b := open()
	defer b.Close()
	fresh, err := b.Create("MHEALTH", 99, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID() == old.ID() {
		t.Fatalf("minted id %q collides with the stored session", fresh.ID())
	}
	got, err := b.Get(fresh.ID())
	if err != nil {
		t.Fatal(err)
	}
	if info := got.Info(); info.User != 99 || info.Slots != 0 {
		t.Fatalf("new session %s = user %d at slot %d, want user 99 at slot 0", info.ID, info.User, info.Slots)
	}
	stored, err := b.Get(old.ID())
	if err != nil {
		t.Fatal(err)
	}
	if info := stored.Info(); info.User != 7 || info.Slots != 3 {
		t.Fatalf("stored session %s = user %d at slot %d, want user 7 at slot 3", info.ID, info.User, info.Slots)
	}
}

// gatedStore is a MemStateStore that counts Puts and, once hold is set,
// parks every Put until release is closed, signalling entered first.
type gatedStore struct {
	*MemStateStore
	puts    atomic.Int64
	hold    atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func newGatedStore() *gatedStore {
	return &gatedStore{MemStateStore: NewMemStateStore(), entered: make(chan struct{}, 1), release: make(chan struct{})}
}

func (g *gatedStore) Put(id string, ver int64, blob []byte) error {
	g.puts.Add(1)
	if g.hold.Load() {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.MemStateStore.Put(id, ver, blob)
}

// prop: with a store, a classified round writes exactly one snapshot, at
// version = rounds classified, carrying the attachment its supplier built
// from the round's own result — all before Classify returns.
func TestManagerClassifyWritesRoundSnapshot(t *testing.T) {
	store := newGatedStore()
	m := NewManager(Config{Registry: tinyRegistry(), Workers: 1, State: store})
	defer m.Close()
	if _, err := m.CreateWithID("w", "MHEALTH", 1, Opts{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		before := store.puts.Load()
		res, err := m.Classify(context.Background(), "w", roundInputs(i), func(r ClassifyResult) []byte {
			return []byte{byte(r.Slot), byte(r.Class + 1)}
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := store.puts.Load() - before; n != 1 {
			t.Fatalf("round %d issued %d Puts, want 1", i, n)
		}
		blob, ver, ok, err := store.Load("w")
		if err != nil || !ok {
			t.Fatalf("round %d: stored snapshot missing: ok=%v err=%v", i, ok, err)
		}
		st, err := DecodeSessionState(blob)
		if err != nil {
			t.Fatal(err)
		}
		if ver != int64(i+1) || st.Slot != i+1 {
			t.Fatalf("round %d stored at version %d slot %d, want %d", i, ver, st.Slot, i+1)
		}
		if want := []byte{byte(res.Slot), byte(res.Class + 1)}; !bytes.Equal(st.Attachment, want) {
			t.Fatalf("round %d attachment %v, want %v", i, st.Attachment, want)
		}
	}
}

// prop: Delete is not undone by a round in flight. The round's store write
// is parked inside Put while Delete runs; Delete must wait it out (or the
// write must not land), so once both return the store is empty and no
// replica can restore the session.
func TestManagerDeleteNotUndoneByRound(t *testing.T) {
	store := newGatedStore()
	m := NewManager(Config{Registry: tinyRegistry(), Workers: 1, State: store})
	defer m.Close()
	if _, err := m.CreateWithID("gone", "MHEALTH", 1, Opts{}); err != nil {
		t.Fatal(err)
	}
	store.hold.Store(true)
	round := make(chan error, 1)
	go func() {
		_, err := m.Classify(context.Background(), "gone", roundInputs(0), nil)
		round <- err
	}()
	<-store.entered // the round's write is in flight

	deleted := make(chan error, 1)
	go func() { deleted <- m.Delete("gone") }()
	// A Delete that returns while the write is still parked has removed an
	// entry the write is about to put back. Give it the chance to.
	select {
	case err := <-deleted:
		t.Errorf("Delete returned (err=%v) while the round's store write was in flight", err)
		deleted <- err
	case <-time.After(50 * time.Millisecond):
	}
	close(store.release)
	if err := <-round; err != nil {
		t.Fatalf("round: %v", err)
	}
	if err := <-deleted; err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if n := store.Len(); n != 0 {
		t.Fatalf("store holds %d sessions after Delete, want 0", n)
	}
	if _, err := m.Get("gone"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Delete: err = %v, want ErrNotFound", err)
	}
}

// prop: concurrent creates of one id admit exactly one session: the rest
// fail with ErrExists, and neither the live count nor the LRU list keeps a
// ghost of the losers.
func TestManagerCreateWithIDConcurrent(t *testing.T) {
	const callers = 16
	for trial := 0; trial < 5; trial++ {
		m := NewManager(Config{Registry: tinyRegistry(), Workers: 1})
		start := make(chan struct{})
		errs := make(chan error, callers)
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, err := m.CreateWithID("dup", "MHEALTH", 1, Opts{})
				errs <- err
			}()
		}
		close(start)
		wg.Wait()
		close(errs)
		ok := 0
		for err := range errs {
			switch {
			case err == nil:
				ok++
			case !errors.Is(err, ErrExists):
				t.Fatalf("trial %d: create err = %v, want nil or ErrExists", trial, err)
			}
		}
		if ok != 1 {
			t.Fatalf("trial %d: %d of %d concurrent creates succeeded, want 1", trial, ok, callers)
		}
		if n := m.Snapshot().SessionsActive; n != 1 {
			t.Fatalf("trial %d: SessionsActive = %d, want 1", trial, n)
		}
		listed := 0
		for _, sh := range m.shards {
			sh.mu.Lock()
			listed += sh.order.Len()
			sh.mu.Unlock()
		}
		if listed != 1 {
			t.Fatalf("trial %d: LRU lists hold %d entries, want 1", trial, listed)
		}
		m.Close()
	}
}

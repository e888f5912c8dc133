package main

import (
	"sync/atomic"
	"time"

	"origin/internal/fleet"
)

// tracedStore wraps the StateStore handed to fleet.Config.State. Every call
// goes to the wrapped store unchanged and its results come back unchanged;
// while the recorder is on, the wrapper also records a span per call and
// counts the bytes handed to Put.
type tracedStore struct {
	inner    fleet.StateStore
	rec      *recorder
	putBytes atomic.Int64
}

func newTracedStore(inner fleet.StateStore, rec *recorder) *tracedStore {
	return &tracedStore{inner: inner, rec: rec}
}

// Load implements fleet.StateStore.
func (s *tracedStore) Load(id string) ([]byte, int64, bool, error) {
	t0 := time.Now()
	blob, ver, ok, err := s.inner.Load(id)
	s.rec.add("fleet.store.load", id, t0, time.Now())
	return blob, ver, ok, err
}

// Put implements fleet.StateStore.
func (s *tracedStore) Put(id string, ver int64, blob []byte) error {
	t0 := time.Now()
	err := s.inner.Put(id, ver, blob)
	if s.rec.add("fleet.store.put", id, t0, time.Now()) {
		s.putBytes.Add(int64(len(blob)))
	}
	return err
}

// Delete implements fleet.StateStore.
func (s *tracedStore) Delete(id string) error {
	t0 := time.Now()
	err := s.inner.Delete(id)
	s.rec.add("fleet.store.delete", id, t0, time.Now())
	return err
}

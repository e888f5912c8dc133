package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"origin/internal/fleet"
)

// storeOp is one call against a StateStore and everything it returned.
type storeOp struct {
	blob []byte
	ver  int64
	ok   bool
	err  error
}

// script drives the same call sequence against a store: fresh loads,
// ordered writes, a stale write that must be dropped, an equal-version
// overwrite, a negative version that must fail, and deletes.
func script(s fleet.StateStore) []storeOp {
	var out []storeOp
	load := func(id string) {
		b, v, ok, err := s.Load(id)
		out = append(out, storeOp{blob: append([]byte(nil), b...), ver: v, ok: ok, err: err})
	}
	put := func(id string, ver int64, blob string) {
		out = append(out, storeOp{err: s.Put(id, ver, []byte(blob))})
	}
	load("s-1")
	put("s-1", 0, "slot0")
	load("s-1")
	put("s-1", 3, "slot3")
	put("s-1", 2, "stale") // older than stored: dropped without error
	load("s-1")
	put("s-1", 3, "again") // equal version: accepted
	load("s-1")
	put("s-1", -1, "negative")
	load("s-1")
	put("s-2", 1, "other")
	out = append(out, storeOp{err: s.Delete("s-1")})
	load("s-1")
	load("s-2")
	out = append(out, storeOp{err: s.Delete("missing")})
	return out
}

func sameOps(t *testing.T, bare, wrapped []storeOp) {
	t.Helper()
	if len(bare) != len(wrapped) {
		t.Fatalf("%d ops through the wrapper, %d bare", len(wrapped), len(bare))
	}
	for i := range bare {
		b, w := bare[i], wrapped[i]
		if !bytes.Equal(b.blob, w.blob) || b.ver != w.ver || b.ok != w.ok || (b.err == nil) != (w.err == nil) {
			t.Errorf("op %d: wrapped %+v, bare %+v", i, w, b)
		}
		if b.err != nil && w.err != nil && b.err.Error() != w.err.Error() {
			t.Errorf("op %d: wrapped error %q, bare %q", i, w.err, b.err)
		}
	}
}

func checkScript(t *testing.T, newStore func() fleet.StateStore) {
	for _, on := range []bool{false, true} {
		rec := &recorder{}
		if on {
			rec.start(time.Now())
		}
		wrapped := newTracedStore(newStore(), rec)
		bare := script(newStore())
		got := script(wrapped)
		sameOps(t, bare, got)
		if got[5].ver != 3 || string(got[5].blob) != "slot3" {
			t.Errorf("stale write was not dropped: load after it = %+v", got[5])
		}
		if got[8].err == nil {
			t.Error("negative version did not fail through the wrapper")
		}
		spans := rec.stop()
		if !on && (len(spans) != 0 || wrapped.putBytes.Load() != 0) {
			t.Errorf("recorder off but %d spans, %d bytes recorded", len(spans), wrapped.putBytes.Load())
		}
		if on {
			puts, loads := 0, 0
			for _, s := range spans {
				switch s.name {
				case "fleet.store.put":
					puts++
				case "fleet.store.load":
					loads++
				}
			}
			if puts != 6 || loads != 7 {
				t.Errorf("recorded %d puts and %d loads, want 6 and 7", puts, loads)
			}
			// Every blob handed to Put counts, including the dropped and
			// rejected ones: they were handed over all the same.
			if want := int64(len("slot0slot3staleagainnegativeother")); wrapped.putBytes.Load() != want {
				t.Errorf("put bytes %d, want %d", wrapped.putBytes.Load(), want)
			}
		}
	}
}

func TestTracedStorePassesThroughMem(t *testing.T) {
	checkScript(t, func() fleet.StateStore { return fleet.NewMemStateStore() })
}

func TestTracedStorePassesThroughFile(t *testing.T) {
	checkScript(t, func() fleet.StateStore {
		s, err := fleet.NewFileStateStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}

func TestTracedStorePassesThroughLoadErrors(t *testing.T) {
	dir := t.TempDir()
	inner, err := fleet.NewFileStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := inner.Put("s-1", 1, []byte("blob")); err != nil {
		t.Fatal(err)
	}
	// Truncate the snapshot below its 8-byte version header.
	if err := os.WriteFile(filepath.Join(dir, "s-1.session"), []byte{1, 2}, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, bareErr := inner.Load("s-1")
	_, _, ok, err := newTracedStore(inner, &recorder{}).Load("s-1")
	if bareErr == nil || err == nil || ok || err.Error() != bareErr.Error() {
		t.Fatalf("wrapped load = ok %v err %v; bare err %v", ok, err, bareErr)
	}
	if errors.Unwrap(err) != errors.Unwrap(bareErr) {
		t.Errorf("wrapped error chain differs: %v vs %v", err, bareErr)
	}
}

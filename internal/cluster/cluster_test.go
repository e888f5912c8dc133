package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"origin/internal/cluster"
	"origin/internal/fleet"
	"origin/internal/fleet/fleettest"
	"origin/internal/loadgen"
	"origin/internal/serve"
)

func newCluster(t *testing.T, replicas int) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.Config{
		Replicas: replicas,
		Registry: fleettest.NewRegistry(),
		Store:    fleet.NewMemStateStore(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// Sanity for the HTTP routing front: creates mint router ids, every
// request for a session reaches its owner wherever the client enters, and
// local routes answer locally.
func TestClusterRoutesHTTP(t *testing.T) {
	cl := newCluster(t, 3)
	base := cl.HTTPURL()

	post := func(path string, body any) (*http.Response, []byte) {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	resp, body := post("/v1/sessions", serve.CreateSessionRequest{Profile: "MHEALTH", User: 9})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create via router: %d %s", resp.StatusCode, body)
	}
	var created serve.CreateSessionResponse
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if created.ID != "r-1" {
		t.Fatalf("router-minted id %q, want r-1", created.ID)
	}
	if owner := cl.Router().Owner(created.ID); owner == "" {
		t.Fatal("created session has no ring owner")
	}

	// A votes round through the router must land on the owner and persist.
	resp, body = post("/v1/sessions/"+created.ID+"/classify", serve.ClassifyRequest{
		Votes: []serve.Vote{{Sensor: 0, Class: 1, Confidence: 0.9}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify via router: %d %s", resp.StatusCode, body)
	}

	get, err := http.Get(base + "/v1/sessions/" + created.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	if get.StatusCode != http.StatusOK {
		t.Fatalf("get via router: %d", get.StatusCode)
	}

	for path, want := range map[string]int{
		"/healthz":     http.StatusOK,
		"/nope":        http.StatusNotFound,
		"/v1/sessions": http.StatusNotFound, // GET on the create route
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: %d, want %d", path, resp.StatusCode, want)
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/sessions/"+created.ID, nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	if del.StatusCode != http.StatusNoContent {
		t.Fatalf("delete via router: %d", del.StatusCode)
	}
}

// shardConfig pins every field loadgen.Run would default, so
// loadgen.SerialReplay regenerates the exact frame streams the live clients
// sent.
func shardConfig(cl *cluster.Cluster, users, requests int) loadgen.Config {
	return loadgen.Config{
		BaseURL:           cl.HTTPURL(),
		StreamAddr:        cl.StreamAddr(),
		Profile:           "MHEALTH",
		Users:             users,
		Requests:          requests,
		Seed:              3,
		Mode:              loadgen.ModeStream,
		SensorsPerRequest: 1,
		VoteFlip:          0.2,
		StreamHop:         loadgen.DefaultStreamHop,
		ReconnectMax:      16,
		Traces:            true,
	}
}

// prop (ISSUE acceptance, headline): a 3-shard cluster with a replica
// killed mid-run AND a fresh replica joined mid-run serves every session's
// classification sequence byte-identical to the single-node serial replay
// — zero lost rounds, zero double classifications, and at least one
// session resumed across a shard boundary from the shared state store.
// Runs in CI under -race via the race job's stress step.
func TestClusterShardChaosMatchesSerialReplay(t *testing.T) {
	cl := newCluster(t, 3)
	cfg := shardConfig(cl, 4, 24)

	// The kill targets whichever replica owns session r-1, and fires from
	// r-1's own first classified round: the session is attached then, with
	// rounds still to send, so the kill severs a live stream that must
	// resume on another replica. The join fires at the run's halfway mark
	// so post-join rounds also rebalance.
	var killOnce, joinOnce sync.Once
	var killed string
	cfg.OnRound = func(session string, total int) {
		if session == "r-1" {
			killOnce.Do(func() {
				killed = cl.Router().Owner("r-1")
				if err := cl.KillReplica(killed); err != nil {
					t.Errorf("kill %q: %v", killed, err)
				}
			})
		}
		if total >= cfg.Users*cfg.Requests/2 {
			joinOnce.Do(func() {
				if _, err := cl.AddReplica(); err != nil {
					t.Errorf("join: %v", err)
				}
			})
		}
	}

	rep, err := loadgen.Run(cfg)
	if err != nil {
		t.Fatalf("loadgen under shard chaos: %v", err)
	}
	if killed == "" {
		t.Fatal("kill never fired — the run proves nothing")
	}
	t.Logf("killed=%s replicas=%v migratedResumes=%d restored=%d severed=%d reconnects=%d resumeAttempts=%d",
		killed, cl.Replicas(), cl.MigratedResumes(), cl.SessionsRestored(),
		cl.Router().Severed.Load(), rep.Reconnects, rep.ResumeAttempts)

	if rep.OK != cfg.Users*cfg.Requests || rep.Errors != 0 {
		t.Fatalf("rounds lost under shard chaos: ok=%d errors=%d want ok=%d errors=0",
			rep.OK, rep.Errors, cfg.Users*cfg.Requests)
	}
	if rep.ResumeMisses != 0 || rep.DoubleClassifies != 0 {
		t.Fatalf("resume protocol violated: misses=%d doubleClassifies=%d",
			rep.ResumeMisses, rep.DoubleClassifies)
	}
	if cl.MigratedResumes() == 0 {
		t.Fatal("no session resumed across a shard boundary — the kill migrated nothing")
	}
	if got := len(cl.Replicas()); got != 3 {
		t.Fatalf("cluster ended with %d replicas, want 3 (3 - 1 killed + 1 joined)", got)
	}
	want, err := loadgen.SerialReplay(&cfg, fleettest.NewModel)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range rep.Sessions {
		if !reflect.DeepEqual(tr.Classes, want[i]) {
			t.Errorf("user %d: sharded sequence diverged from single-node serial replay:\n got %v\nwant %v",
				i, tr.Classes, want[i])
		}
	}
}

// prop: shard count is invisible to results — 1-shard and 3-shard clusters
// serve identical traces for the same seed (both already equal the serial
// replay; this pins the cross-cluster equality directly and cheaply).
func TestClusterShardCountInvariance(t *testing.T) {
	run := func(replicas int) []loadgen.SessionTrace {
		cl := newCluster(t, replicas)
		rep, err := loadgen.Run(shardConfig(cl, 3, 10))
		if err != nil {
			t.Fatalf("loadgen on %d shards: %v", replicas, err)
		}
		return rep.Sessions
	}
	one, three := run(1), run(3)
	if len(one) != len(three) {
		t.Fatalf("trace counts differ: %d vs %d", len(one), len(three))
	}
	for i := range one {
		if !reflect.DeepEqual(one[i].Classes, three[i].Classes) {
			t.Errorf("user %d: traces differ across shard counts:\n 1 shard %v\n 3 shards %v",
				i, one[i].Classes, three[i].Classes)
		}
	}
}

// prop: a session created before a join stays readable after the join from
// the router, wherever ownership moved — the store, not replica memory, is
// authoritative.
func TestClusterJoinMovesSessions(t *testing.T) {
	cl := newCluster(t, 2)
	base := cl.HTTPURL()
	ids := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		b, _ := json.Marshal(serve.CreateSessionRequest{Profile: "MHEALTH", User: int64(i)})
		resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		var created serve.CreateSessionResponse
		if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ids = append(ids, created.ID)
	}
	before := map[string]string{}
	for _, id := range ids {
		before[id] = cl.Router().Owner(id)
	}
	if _, err := cl.AddReplica(); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, id := range ids {
		if cl.Router().Owner(id) != before[id] {
			moved++
		}
		resp, err := http.Get(base + "/v1/sessions/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("session %s unreadable after join: %d (owner %s -> %s)",
				id, resp.StatusCode, before[id], cl.Router().Owner(id))
		}
	}
	t.Logf("join moved %d of %d sessions", moved, len(ids))
}

// prop: a router started over replicas that already hold the ids an earlier
// router minted skips the taken ids instead of answering 409, while a taken
// id the client chose still reaches the client as 409.
func TestRouterSkipsTakenMintedIDs(t *testing.T) {
	reg, store := fleettest.NewRegistry(), fleet.NewMemStateStore()
	var backends []cluster.Backend
	for i := 0; i < 2; i++ {
		mgr := fleet.NewManager(fleet.Config{Registry: reg, State: store})
		ts := httptest.NewServer(serve.New(serve.Config{Manager: mgr}))
		t.Cleanup(func() { ts.Close(); mgr.Close() })
		// HTTP-only test: the stream address is never dialed.
		backends = append(backends, cluster.Backend{Name: fmt.Sprintf("shard-%d", i), HTTPURL: ts.URL, StreamAddr: "127.0.0.1:1"})
	}
	create := func(router *cluster.Router, req serve.CreateSessionRequest) (int, string) {
		b, _ := json.Marshal(req)
		rec := httptest.NewRecorder()
		router.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(b)))
		var created serve.CreateSessionResponse
		_ = json.Unmarshal(rec.Body.Bytes(), &created)
		return rec.Code, created.ID
	}
	first, err := cluster.NewRouter(backends...)
	if err != nil {
		t.Fatal(err)
	}
	if code, id := create(first, serve.CreateSessionRequest{Profile: "MHEALTH", User: 7}); code != http.StatusCreated || id != "r-1" {
		t.Fatalf("first router create: %d %q, want 201 r-1", code, id)
	}
	second, err := cluster.NewRouter(backends...)
	if err != nil {
		t.Fatal(err)
	}
	if code, id := create(second, serve.CreateSessionRequest{Profile: "MHEALTH", User: 99}); code != http.StatusCreated || id != "r-2" {
		t.Fatalf("second router create: %d %q, want 201 r-2", code, id)
	}
	if code, _ := create(second, serve.CreateSessionRequest{ID: "r-1", Profile: "MHEALTH", User: 99}); code != http.StatusConflict {
		t.Fatalf("client-chosen taken id: %d, want 409", code)
	}
}

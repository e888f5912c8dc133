package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"origin/internal/fleet"
	"origin/internal/fleet/fleettest"
	"origin/internal/serve"
)

func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	mgr := fleet.NewManager(fleet.Config{Registry: fleettest.NewRegistry()})
	ts := httptest.NewServer(serve.New(serve.Config{Manager: mgr}))
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	return ts
}

func post(t *testing.T, url string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestSessionLifecycle walks the whole API surface: create, inspect,
// classify, delete, and the 404 after deletion.
func TestSessionLifecycle(t *testing.T) {
	ts := newServer(t)

	var created serve.CreateSessionResponse
	status := post(t, ts.URL+"/v1/sessions", serve.CreateSessionRequest{Profile: "MHEALTH", User: 42}, &created)
	if status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	if created.ID == "" || created.Sensors <= 0 || created.Classes <= 0 || created.Window <= 0 {
		t.Fatalf("create response incomplete: %+v", created)
	}
	if len(created.Activities) != created.Classes {
		t.Fatalf("create: %d activities for %d classes", len(created.Activities), created.Classes)
	}

	var res serve.ClassifyResponse
	status = post(t, ts.URL+"/v1/sessions/"+created.ID+"/classify",
		serve.ClassifyRequest{Votes: []serve.Vote{{Sensor: 0, Class: 1, Confidence: 0.03}}}, &res)
	if status != http.StatusOK {
		t.Fatalf("classify: status %d", status)
	}
	if res.Slot != 0 || res.Class < 0 || res.Activity == "" || len(res.Votes) != 1 {
		t.Fatalf("classify response: %+v", res)
	}

	resp, err := http.Get(ts.URL + "/v1/sessions/" + created.ID)
	if err != nil {
		t.Fatal(err)
	}
	var info serve.SessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || info.ID != created.ID || info.User != 42 || info.Slots != 1 {
		t.Fatalf("get: status %d info %+v", resp.StatusCode, info)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+created.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/sessions/" + created.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status %d, want 404", resp.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	ts := newServer(t)
	var created serve.CreateSessionResponse
	post(t, ts.URL+"/v1/sessions", serve.CreateSessionRequest{Profile: "MHEALTH"}, &created)

	cases := []struct {
		name   string
		url    string
		body   string
		status int
	}{
		{"unknown profile", "/v1/sessions", `{"profile":"WISDM"}`, http.StatusBadRequest},
		{"malformed create", "/v1/sessions", `{"profile":`, http.StatusBadRequest},
		{"bad quorum", "/v1/sessions", `{"profile":"MHEALTH","quorum":99}`, http.StatusBadRequest},
		{"bad sensor", "/v1/sessions/" + created.ID + "/classify", `{"votes":[{"sensor":9,"class":0,"confidence":0.1}]}`, http.StatusBadRequest},
		{"ragged window", "/v1/sessions/" + created.ID + "/classify", `{"windows":[{"sensor":0,"samples":[[1,2],[3]]}]}`, http.StatusBadRequest},
		{"classify missing session", "/v1/sessions/nope/classify", `{}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.url, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
}

// prop: /metrics speaks Prometheus text format and carries both the
// device-level telemetry and the serving counters the ISSUE names.
func TestMetricsEndpoint(t *testing.T) {
	ts := newServer(t)
	var created serve.CreateSessionResponse
	post(t, ts.URL+"/v1/sessions", serve.CreateSessionRequest{Profile: "MHEALTH"}, &created)
	for i := 0; i < 3; i++ {
		post(t, ts.URL+"/v1/sessions/"+created.ID+"/classify",
			serve.ClassifyRequest{Votes: []serve.Vote{{Sensor: i % 3, Class: 0, Confidence: 0.02}}}, nil)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics content type %q, want text exposition 0.0.4", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"origin_fresh_votes_total 3",
		"origin_slots_total 3",
		"origin_serve_sessions_active 1",
		"origin_serve_sessions_created_total 1",
		"origin_serve_sessions_evicted_total 0",
		"origin_serve_requests_accepted_total 3",
		"origin_serve_requests_shed_total 0",
		"origin_serve_requests_done_total 3",
		"origin_serve_queue_depth 0",
		"# TYPE origin_serve_sessions_active gauge",
		"# TYPE origin_serve_requests_accepted_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestHealthz(t *testing.T) {
	ts := newServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
}

// prop: oversized bodies are rejected, not buffered without bound.
func TestBodyLimit(t *testing.T) {
	mgr := fleet.NewManager(fleet.Config{Registry: fleettest.NewRegistry()})
	ts := httptest.NewServer(serve.New(serve.Config{Manager: mgr}))
	t.Cleanup(func() { ts.Close(); mgr.Close() })

	// Just past the fixed 8 MiB body cap.
	huge := `{"profile":"MHEALTH","pad":"` + strings.Repeat("x", 8<<20) + `"}`
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d, want 400", resp.StatusCode)
	}
}

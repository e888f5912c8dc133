package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"origin/internal/comm"
	"origin/internal/serve"
)

// Router is the stateless front of a sharded serving tier. It owns no
// session state: it parses just enough of each request (the session id in
// the URL path, or the hello frame on a stream connection) to pick the
// owning replica off the consistent-hash ring, then forwards.
//
// Correctness contract with the resume protocol:
//
//   - HTTP requests are retried on another replica ONLY when the dial
//     failed — the request was provably never delivered, so the retry
//     cannot double-classify. A replica that dies mid-request surfaces as
//     a 502; for classify rounds the stream protocol, not the router, is
//     the delivery-exactly-once path.
//   - Stream connections are spliced byte-for-byte after the hello. When
//     membership changes, the router severs every spliced connection whose
//     session now hashes to a different replica; the client's reconnect
//     lands on the new owner, which resumes from the shared state store.
//   - Session ids are router-assigned ("r-%d") on create when the client
//     did not pick one, so placement is a pure function of the id and any
//     router instance routes the session identically. A minted id the
//     owner already holds is skipped, not reported.
type Router struct {
	ring  *Ring
	ids   atomic.Int64
	httpc *http.Client

	mu       sync.Mutex
	backends map[string]Backend
	splices  map[string]map[net.Conn]struct{} // session id -> spliced client conns

	// Severed counts spliced stream connections cut because their session's
	// ring owner changed — each one forces a client reconnect that must
	// land as a store resume on the new owner.
	Severed atomic.Int64
}

// Backend is one routable replica.
type Backend struct {
	// Name keys the replica on the ring.
	Name string
	// HTTPURL is the replica's HTTP base URL (for example "http://127.0.0.1:8080").
	HTTPURL string
	// StreamAddr is the replica's binary stream listener address.
	StreamAddr string
}

// NewRouter builds a router over the given replicas.
func NewRouter(backends ...Backend) (*Router, error) {
	r := &Router{
		ring:     NewRing(),
		backends: map[string]Backend{},
		splices:  map[string]map[net.Conn]struct{}{},
		httpc: &http.Client{
			Timeout: 30 * time.Second,
			// One lost backend must not leave poisoned keep-alive conns.
			Transport: &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 10 * time.Second},
		},
	}
	for _, b := range backends {
		if err := r.AddBackend(b); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// AddBackend registers a replica and gives it its ring share. Sessions
// whose owner moves to the new replica have their spliced stream
// connections severed so the clients re-home.
func (r *Router) AddBackend(b Backend) error {
	if b.Name == "" || b.HTTPURL == "" || b.StreamAddr == "" {
		return fmt.Errorf("cluster: backend needs name, http url, and stream addr: %+v", b)
	}
	r.mu.Lock()
	if _, ok := r.backends[b.Name]; ok {
		r.mu.Unlock()
		return fmt.Errorf("cluster: backend %q already registered", b.Name)
	}
	r.backends[b.Name] = b
	r.mu.Unlock()
	r.ring.Add(b.Name)
	r.severMoved()
	return nil
}

// RemoveBackend takes a replica out of rotation (dead or draining). Its
// sessions re-home to the survivors on their next connection.
func (r *Router) RemoveBackend(name string) {
	r.ring.Remove(name)
	r.mu.Lock()
	delete(r.backends, name)
	r.mu.Unlock()
	r.severMoved()
}

// Backends returns the registered replica names, sorted.
func (r *Router) Backends() []string { return r.ring.Members() }

// Owner reports the replica name a session currently routes to ("" on an
// empty ring). The chaos drills use it to aim kills at a replica that is
// guaranteed to own live sessions.
func (r *Router) Owner(session string) string { return r.ring.Owner(session) }

// severMoved closes every spliced client connection whose session no
// longer routes to the replica it was spliced against. The serving side of
// the splice observes the close and parks/persists as usual; the client
// reconnects through the router and store-resumes on the new owner.
func (r *Router) severMoved() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for sess, conns := range r.splices {
		for conn := range conns {
			owner := r.ring.Owner(sess)
			if sp, ok := conn.(*splicedConn); ok && sp.backend != owner {
				conn.Close()
				r.Severed.Add(1)
			}
		}
	}
}

// owner resolves a session id to its backend. ok is false on an empty ring.
func (r *Router) owner(session string) (Backend, bool) {
	name := r.ring.Owner(session)
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.backends[name]
	return b, ok
}

// ---- HTTP front ----

// ServeHTTP implements the routing HTTP front. /healthz answers locally;
// /v1/sessions requests route by session id.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	switch {
	case req.URL.Path == "/healthz":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	case req.URL.Path == "/v1/sessions" && req.Method == http.MethodPost:
		r.routeCreate(w, req)
	case strings.HasPrefix(req.URL.Path, "/v1/sessions/"):
		id := strings.TrimPrefix(req.URL.Path, "/v1/sessions/")
		if i := strings.IndexByte(id, '/'); i >= 0 {
			id = id[:i]
		}
		if id == "" {
			httpError(w, http.StatusBadRequest, "missing session id")
			return
		}
		body, err := io.ReadAll(req.Body)
		if err != nil {
			httpError(w, http.StatusBadRequest, "unreadable body")
			return
		}
		r.forward(w, req, id, body)
	default:
		httpError(w, http.StatusNotFound, "unknown route")
	}
}

// routeCreate handles POST /v1/sessions: assign the session id up front
// (unless the client picked one) so the create lands on the replica that
// will own every subsequent request for it. A minted id can already be taken
// — a restarted router's counter starts over while the store still holds the
// ids its predecessor minted — so a 409 for a minted id retries with the next
// one. A 409 for a client-chosen id reaches the client.
func (r *Router) routeCreate(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(req.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "unreadable body")
		return
	}
	var create serve.CreateSessionRequest
	if err := json.Unmarshal(body, &create); err != nil {
		httpError(w, http.StatusBadRequest, "malformed create request")
		return
	}
	minted := create.ID == ""
	for attempt := 0; ; attempt++ {
		if minted {
			create.ID = fmt.Sprintf("r-%d", r.ids.Add(1))
			if body, err = json.Marshal(&create); err != nil {
				httpError(w, http.StatusInternalServerError, "re-encode failed")
				return
			}
		}
		resp := r.roundTrip(w, req, create.ID, body)
		if resp == nil {
			return
		}
		if minted && resp.StatusCode == http.StatusConflict && attempt < maxForwardAttempts {
			resp.Body.Close()
			continue
		}
		relay(w, resp)
		return
	}
}

// forward proxies one request to the session's owner and relays the reply.
func (r *Router) forward(w http.ResponseWriter, req *http.Request, session string, body []byte) {
	if resp := r.roundTrip(w, req, session, body); resp != nil {
		relay(w, resp)
	}
}

// roundTrip sends one request to the session's owner and returns the reply,
// or writes an error to w and returns nil. On a dial failure the target is
// evicted from the ring (it is unreachable for everyone) and the request
// retries on the next owner — safe because a dial failure means zero
// request bytes were delivered.
func (r *Router) roundTrip(w http.ResponseWriter, req *http.Request, session string, body []byte) *http.Response {
	for attempt := 0; ; attempt++ {
		b, ok := r.owner(session)
		if !ok {
			httpError(w, http.StatusServiceUnavailable, "no replicas available")
			return nil
		}
		out, err := http.NewRequestWithContext(req.Context(), req.Method, b.HTTPURL+req.URL.Path, bytes.NewReader(body))
		if err != nil {
			httpError(w, http.StatusInternalServerError, "bad upstream request")
			return nil
		}
		out.Header = req.Header.Clone()
		resp, err := r.httpc.Do(out)
		if err != nil {
			if isDialFailure(err) && attempt < maxForwardAttempts {
				r.RemoveBackend(b.Name)
				continue
			}
			httpError(w, http.StatusBadGateway, "upstream unreachable")
			return nil
		}
		return resp
	}
}

// relay copies an upstream reply to the client and closes it.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// maxForwardAttempts bounds dial-failure retries (and minted-id conflict
// retries on create): a full cluster outage must fail fast, not spin.
const maxForwardAttempts = 8

// isDialFailure reports whether err happened before any request byte was
// delivered — the only failure class the router may retry elsewhere.
func isDialFailure(err error) bool {
	var opErr *net.OpError
	if errors.As(err, &opErr) && opErr.Op == "dial" {
		return true
	}
	return errors.Is(err, syscall.ECONNREFUSED)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(serve.ErrorResponse{Error: msg})
}

// ---- stream front ----

// splicedConn tags a routed client connection with the backend its bytes
// flow to, so membership changes can tell which splices went stale.
type splicedConn struct {
	net.Conn
	backend string
}

// ServeStream accepts stream connections on ln and splices each to its
// session's owner until ln is closed.
func (r *Router) ServeStream(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go r.splice(conn)
	}
}

// splice reads the preamble and hello off the client, dials the session's
// owner, replays the preamble and hello, then copies bytes both ways until
// either side closes. The hello is re-encoded from its decoded form —
// envelope encoding is deterministic, so the replica sees the exact bytes
// the client sent.
func (r *Router) splice(client net.Conn) {
	defer client.Close()
	_ = client.SetReadDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReaderSize(client, 4096)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || magic != comm.StreamMagic {
		r.streamReject(client, comm.StreamErrProtocol, "bad stream preamble")
		return
	}
	frame, err := comm.ReadFrame(br)
	if err != nil || frame.Type != comm.FrameHello {
		r.streamReject(client, comm.StreamErrProtocol, "expected hello frame")
		return
	}
	hello, err := comm.DecodeHello(frame.Payload)
	if err != nil {
		r.streamReject(client, comm.StreamErrProtocol, err.Error())
		return
	}
	_ = client.SetReadDeadline(time.Time{})

	// Resolve-and-dial loop: a dead owner is evicted exactly like on the
	// HTTP path, and the session re-resolves to the survivor that now owns
	// it — a client that redialed in the instant between a kill and the
	// ring update must not eat a terminal error frame for it.
	var upstream net.Conn
	var b Backend
	for attempt := 0; ; attempt++ {
		var ok bool
		if b, ok = r.owner(hello.Session); !ok {
			r.streamReject(client, comm.StreamErrInternal, "no replicas available")
			return
		}
		upstream, err = net.DialTimeout("tcp", b.StreamAddr, 10*time.Second)
		if err == nil {
			break
		}
		if attempt >= maxForwardAttempts {
			r.streamReject(client, comm.StreamErrInternal, "owner unreachable")
			return
		}
		r.RemoveBackend(b.Name)
	}
	defer upstream.Close()

	preamble := append([]byte(nil), comm.StreamMagic[:]...)
	if preamble, err = comm.AppendFrame(preamble, comm.FrameHello, frame.Payload); err != nil {
		r.streamReject(client, comm.StreamErrInternal, "hello replay failed")
		return
	}
	if _, err := upstream.Write(preamble); err != nil {
		r.streamReject(client, comm.StreamErrInternal, "owner write failed")
		return
	}

	tagged := &splicedConn{Conn: client, backend: b.Name}
	r.trackSplice(hello.Session, tagged)
	defer r.untrackSplice(hello.Session, tagged)

	// Bidirectional copy; first side to fail tears both down. The buffered
	// reader may hold client bytes read past the hello — drain it first.
	done := make(chan struct{}, 2)
	go func() {
		_, _ = io.Copy(upstream, br)
		if tc, ok := upstream.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
		done <- struct{}{}
	}()
	go func() {
		_, _ = io.Copy(tagged, upstream)
		tagged.Close()
		done <- struct{}{}
	}()
	<-done
	<-done
}

func (r *Router) trackSplice(session string, conn net.Conn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.splices[session] == nil {
		r.splices[session] = map[net.Conn]struct{}{}
	}
	r.splices[session][conn] = struct{}{}
}

func (r *Router) untrackSplice(session string, conn net.Conn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.splices[session], conn)
	if len(r.splices[session]) == 0 {
		delete(r.splices, session)
	}
}

// streamReject writes one error frame to the client; write failures are
// moot — the connection is being torn down either way.
func (r *Router) streamReject(conn net.Conn, code int, msg string) {
	if b, err := comm.EncodeStreamError(nil, comm.StreamError{Code: code, Msg: msg}); err == nil {
		_ = conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
		_, _ = conn.Write(b)
	}
}

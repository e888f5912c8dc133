package fault

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

func TestConnChaosValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  ConnChaos
		ok   bool
	}{
		{"zero", ConnChaos{}, true},
		{"full kill", ConnChaos{KillRate: 1, KillMinBytes: 1, KillMaxBytes: 10}, true},
		{"rate above one", ConnChaos{KillRate: 1.5, KillMinBytes: 1, KillMaxBytes: 2}, false},
		{"negative rate", ConnChaos{SlowReadRate: -0.1}, false},
		{"kill without min", ConnChaos{KillRate: 0.5}, false},
		{"max below min", ConnChaos{KillRate: 0.5, KillMinBytes: 10, KillMaxBytes: 5}, false},
		{"negative delay", ConnChaos{AcceptDelay: -time.Second}, false},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// chaosPair dials one connection through a chaos listener and returns both
// ends plus the listener.
func chaosPair(t *testing.T, cfg ConnChaos) (server, client net.Conn, lis *ChaosListener) {
	t.Helper()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	lis, err = NewChaosListener(inner, cfg)
	if err != nil {
		t.Fatalf("chaos listener: %v", err)
	}
	t.Cleanup(func() { lis.Close() })
	accepted := make(chan net.Conn, 1)
	errc := make(chan error, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			errc <- err
			return
		}
		accepted <- c
	}()
	client, err = net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	select {
	case server = <-accepted:
	case err := <-errc:
		t.Fatalf("accept: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("accept timed out")
	}
	t.Cleanup(func() { server.Close() })
	return server, client, lis
}

// TestConnChaosKillPlanDeterministic checks that the per-connection kill
// budget is a pure function of (seed, connection index): two listeners with
// the same seed arm identical plans, and the budget sits inside the
// configured range.
func TestConnChaosKillPlanDeterministic(t *testing.T) {
	cfg := ConnChaos{Seed: 7, KillRate: 1, KillMinBytes: 100, KillMaxBytes: 5000}
	var plans [2][]int
	for run := 0; run < 2; run++ {
		for i := 0; i < 4; i++ {
			server, _, _ := chaosPair(t, cfg)
			cc, ok := server.(*chaosConn)
			if !ok {
				t.Fatalf("accepted conn is %T, want *chaosConn", server)
			}
			if cc.killAt < cfg.KillMinBytes || cc.killAt > cfg.KillMaxBytes {
				t.Fatalf("kill budget %d outside [%d,%d]", cc.killAt, cfg.KillMinBytes, cfg.KillMaxBytes)
			}
			plans[run] = append(plans[run], cc.killAt)
		}
	}
	// Each listener sees connection indices 0..3, so the two runs must have
	// drawn the same budgets even though they are distinct listeners.
	// chaosPair creates one listener per call; connection index is always 0.
	for i := range plans[0] {
		if plans[0][i] != plans[1][i] {
			t.Fatalf("kill plans differ across runs: %v vs %v", plans[0], plans[1])
		}
	}
	if plans[0][0] != plans[0][1] {
		// Index 0 of every listener draws the same stream: same budget.
		t.Fatalf("same (seed, index) drew different budgets: %v", plans[0])
	}
}

// TestConnChaosKillFires drives uplink bytes through a kill-armed connection
// and checks the kill lands once the budget is spent, surfacing ErrInjected
// on the server side and a reset/EOF on the client side.
func TestConnChaosKillFires(t *testing.T) {
	cfg := ConnChaos{Seed: 3, KillRate: 1, KillMinBytes: 64, KillMaxBytes: 256}
	server, client, lis := chaosPair(t, cfg)

	go func() {
		buf := make([]byte, 32)
		for {
			if _, err := client.Write(buf); err != nil {
				return
			}
		}
	}()
	var total int
	var readErr error
	buf := make([]byte, 48)
	for {
		n, err := server.Read(buf)
		total += n
		if err != nil {
			readErr = err
			break
		}
		if total > 1<<20 {
			t.Fatal("kill never fired")
		}
	}
	if !errors.Is(readErr, ErrInjected) {
		t.Fatalf("server read error = %v, want ErrInjected", readErr)
	}
	if total < cfg.KillMinBytes {
		t.Fatalf("killed after %d bytes, below min %d", total, cfg.KillMinBytes)
	}
	if got := lis.Stats().Kills; got != 1 {
		t.Fatalf("Stats().Kills = %d, want 1", got)
	}
	// Further reads on the killed conn surface the underlying closed-conn
	// error, not a second kill.
	if _, err := server.Read(buf); err == nil {
		t.Fatal("read after kill succeeded")
	}
	if got := lis.Stats().Kills; got != 1 {
		t.Fatalf("kill double-counted: %d", got)
	}
}

// TestConnChaosPartialWrite checks the armed downlink write is truncated and
// the peer sees a torn payload then EOF.
func TestConnChaosPartialWrite(t *testing.T) {
	// The tear lands on a write ordinal in [1, chaosPartialWindow]; writing
	// the same payload on every ordinal hits it wherever it was armed.
	cfg := ConnChaos{Seed: 11, PartialWriteRate: 1}
	server, client, lis := chaosPair(t, cfg)

	payload := make([]byte, 100)
	for i := range payload {
		payload[i] = byte(i)
	}
	var wrote int
	var tearErr error
	for i := 0; i < chaosPartialWindow+1; i++ {
		n, err := server.Write(payload)
		wrote += n
		if err != nil {
			tearErr = err
			break
		}
	}
	if !errors.Is(tearErr, ErrInjected) {
		t.Fatalf("write error = %v, want ErrInjected", tearErr)
	}
	if got := lis.Stats().PartialWrites; got != 1 {
		t.Fatalf("Stats().PartialWrites = %d, want 1", got)
	}
	// The client must observe strictly fewer bytes than were attempted —
	// the tear truncated the final write — and then EOF/reset.
	got := 0
	buf := make([]byte, 4096)
	for {
		n, err := client.Read(buf)
		got += n
		if err != nil {
			break
		}
	}
	if got != wrote {
		t.Fatalf("client read %d bytes, server wrote %d", got, wrote)
	}
	if got%len(payload) == 0 {
		t.Fatalf("tear landed on a payload boundary: %d bytes", got)
	}
}

// TestConnChaosSlowReadAndAcceptDelay checks the latency injectors count.
func TestConnChaosSlowReadAndAcceptDelay(t *testing.T) {
	cfg := ConnChaos{
		Seed:            5,
		SlowReadRate:    1,
		SlowReadDelay:   time.Millisecond,
		AcceptDelayRate: 1,
		AcceptDelay:     time.Millisecond,
	}
	server, client, lis := chaosPair(t, cfg)
	if got := lis.Stats().DelayedAccepts; got != 1 {
		t.Fatalf("Stats().DelayedAccepts = %d, want 1", got)
	}
	go func() {
		client.Write([]byte("ping"))
		client.Close()
	}()
	buf := make([]byte, 16)
	for {
		if _, err := server.Read(buf); err != nil {
			if err != io.EOF {
				t.Errorf("read: %v", err)
			}
			break
		}
	}
	if got := lis.Stats().SlowReads; got < 1 {
		t.Fatalf("Stats().SlowReads = %d, want >= 1", got)
	}
	if got := lis.Stats().Conns; got != 1 {
		t.Fatalf("Stats().Conns = %d, want 1", got)
	}
}

// echoServer accepts every connection from lis concurrently and echoes
// uplink bytes back downlink until EOF — the minimal peer for exercising the
// latency injectors under a real concurrent accept loop.
func echoServer(t *testing.T, lis net.Listener) {
	t.Helper()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				_, _ = io.Copy(c, c)
			}(conn)
		}
	}()
}

// TestConnChaosAcceptDelayConcurrent (ISSUE 9 satellite) drives many
// simultaneous dials through an accept-delaying listener: every connection
// must still be admitted exactly once (delays stall the accept loop, they
// never drop connections), every byte must survive the delay, and the
// delayed-accept counter must equal the connection count at rate 1.
func TestConnChaosAcceptDelayConcurrent(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	lis, err := NewChaosListener(inner, ConnChaos{
		Seed:            11,
		AcceptDelayRate: 1,
		AcceptDelay:     2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("chaos listener: %v", err)
	}
	defer lis.Close()
	echoServer(t, lis)

	const conns = 16
	done := make(chan error, conns)
	for i := 0; i < conns; i++ {
		go func(i int) {
			c, err := net.Dial("tcp", inner.Addr().String())
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			msg := []byte{byte(i), byte(i + 1), byte(i + 2)}
			if _, err := c.Write(msg); err != nil {
				done <- err
				return
			}
			buf := make([]byte, len(msg))
			if _, err := io.ReadFull(c, buf); err != nil {
				done <- err
				return
			}
			if buf[0] != byte(i) {
				done <- errors.New("echoed bytes corrupted")
				return
			}
			done <- nil
		}(i)
	}
	for i := 0; i < conns; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("conn %d: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("connections timed out behind the accept delay")
		}
	}
	st := lis.Stats()
	if st.Conns != conns {
		t.Fatalf("Stats().Conns = %d, want %d", st.Conns, conns)
	}
	if st.DelayedAccepts != conns {
		t.Fatalf("Stats().DelayedAccepts = %d, want %d (rate 1)", st.DelayedAccepts, conns)
	}
}

// TestConnChaosSlowReadConcurrent (ISSUE 9 satellite) pushes several
// concurrent connections through a slow-read listener and checks the
// injected latency never corrupts or reorders the stream: each connection's
// echoed payload comes back intact, and the slow-read counter records
// injections across the whole accept loop.
func TestConnChaosSlowReadConcurrent(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	lis, err := NewChaosListener(inner, ConnChaos{
		Seed:          13,
		SlowReadRate:  0.5,
		SlowReadDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("chaos listener: %v", err)
	}
	defer lis.Close()
	echoServer(t, lis)

	const conns = 8
	const chunks = 20
	done := make(chan error, conns)
	for i := 0; i < conns; i++ {
		go func(i int) {
			c, err := net.Dial("tcp", inner.Addr().String())
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			// Interleave small writes and reads so the server-side Read path
			// (where the injector sits) runs many times per connection.
			buf := make([]byte, 32)
			for k := 0; k < chunks; k++ {
				msg := []byte{byte(i), byte(k), byte(i ^ k)}
				if _, err := c.Write(msg); err != nil {
					done <- err
					return
				}
				if _, err := io.ReadFull(c, buf[:len(msg)]); err != nil {
					done <- err
					return
				}
				if buf[0] != byte(i) || buf[1] != byte(k) || buf[2] != byte(i^k) {
					done <- errors.New("slow-read path corrupted the stream")
					return
				}
			}
			done <- nil
		}(i)
	}
	for i := 0; i < conns; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("conn %d: %v", i, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("slow-read connections timed out")
		}
	}
	if got := lis.Stats().SlowReads; got < 1 {
		t.Fatalf("Stats().SlowReads = %d, want >= 1 at rate 0.5 over %d reads", got, conns*chunks)
	}
}

// TestConnChaosSetConfigWindow checks mid-run fault windows: connections
// accepted while the window is closed run fault-free, reconfiguring opens
// the window for new connections only, and the per-connection variate
// discipline keeps later plans index-pure across the toggle.
func TestConnChaosSetConfigWindow(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	lis, err := NewChaosListener(inner, ConnChaos{Seed: 17})
	if err != nil {
		t.Fatalf("chaos listener: %v", err)
	}
	defer lis.Close()
	if err := lis.SetConfig(ConnChaos{Seed: 17, KillRate: 1.5, KillMinBytes: 1, KillMaxBytes: 2}); err == nil {
		t.Fatal("SetConfig accepted an invalid rate")
	}

	accept := func() net.Conn {
		t.Helper()
		accepted := make(chan net.Conn, 1)
		go func() {
			c, err := lis.Accept()
			if err == nil {
				accepted <- c
			}
		}()
		cl, err := net.Dial("tcp", inner.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		t.Cleanup(func() { cl.Close() })
		select {
		case c := <-accepted:
			t.Cleanup(func() { c.Close() })
			return c
		case <-time.After(5 * time.Second):
			t.Fatal("accept timed out")
			return nil
		}
	}

	calm := accept().(*chaosConn)
	if calm.killAt != -1 || calm.slowRate != 0 {
		t.Fatalf("closed window armed a fault plan: killAt=%d slowRate=%v", calm.killAt, calm.slowRate)
	}
	armed := ConnChaos{Seed: 17, KillRate: 1, KillMinBytes: 100, KillMaxBytes: 200,
		SlowReadRate: 1, SlowReadDelay: time.Millisecond}
	if err := lis.SetConfig(armed); err != nil {
		t.Fatalf("SetConfig: %v", err)
	}
	if got := lis.Config().KillRate; got != 1 {
		t.Fatalf("Config().KillRate = %v after SetConfig, want 1", got)
	}
	hot := accept().(*chaosConn)
	if hot.killAt < 100 || hot.killAt > 200 || hot.slowRate != 1 {
		t.Fatalf("open window failed to arm: killAt=%d slowRate=%v", hot.killAt, hot.slowRate)
	}
	// The calm connection (accepted before the window opened) keeps its
	// fault-free plan even while the window is open.
	if calm.killAt != -1 || calm.slowRate != 0 {
		t.Fatal("reconfiguration mutated an already-accepted connection's plan")
	}
	if err := lis.SetConfig(ConnChaos{Seed: 17}); err != nil {
		t.Fatalf("SetConfig (close window): %v", err)
	}
	cold := accept().(*chaosConn)
	if cold.killAt != -1 || cold.slowRate != 0 {
		t.Fatal("closing the window left new connections armed")
	}
}

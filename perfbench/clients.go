package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"origin/internal/loadgen"
)

// httpSender is one keep-alive HTTP/1.1 connection driven open-loop: its
// sender goroutine writes each round's request when it comes due without
// waiting for earlier answers (HTTP pipelining), and a receiver goroutine
// reads the answers, which the server returns in request order.
type httpSender struct {
	conn net.Conn
	br   *bufio.Reader
	ids  []string // session id per wearer
	in   *inputs
	clk  clock
	buf  []byte

	// fifo carries written rounds to the receiver in wire order; a nil
	// round ends the phase. It is sized to the phase's rounds plus the nil,
	// so the sender never blocks on it.
	fifo chan *round

	mu       sync.Mutex
	cond     *sync.Cond
	answered []int // per wearer: rounds answered so far
	broken   error // the receiver's failure; wakes a sender held on an answer

	uplink int64 // bytes written, headers included
}

func dialHTTP(addr string, ids []string, in *inputs) (*httpSender, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial http front: %w", err)
	}
	h := &httpSender{conn: c, br: bufio.NewReaderSize(c, 32<<10), ids: ids, in: in, answered: make([]int, len(ids))}
	h.cond = sync.NewCond(&h.mu)
	return h, nil
}

// begin readies the sender for a phase of n rounds on clk.
func (h *httpSender) begin(n int, clk clock) {
	h.clk = clk
	h.fifo = make(chan *round, n+1)
}

// send implements transport. It holds a wearer's round until the previous
// one is answered, which keeps each session's rounds in order.
func (h *httpSender) send(r *round) error {
	h.mu.Lock()
	for h.answered[r.wearer] < r.k && h.broken == nil {
		h.cond.Wait()
	}
	broken := h.broken
	h.mu.Unlock()
	if broken != nil {
		return broken
	}
	h.buf = classifyRequest(h.buf[:0], h.ids[r.wearer], h.in.vote(r.wearer, r.k))
	r.sent = h.clk.now()
	h.fifo <- r
	n, err := h.conn.Write(h.buf)
	h.uplink += int64(n)
	return err
}

// end tells the receiver no more rounds follow.
func (h *httpSender) end() { h.fifo <- nil }

// receive reads one answer per written round until end. A non-200 answer
// or a slot other than the round's own marks the round failed.
func (h *httpSender) receive() error {
	for r := <-h.fifo; r != nil; r = <-h.fifo {
		body, status, err := h.readAnswer()
		if err != nil {
			h.mu.Lock()
			h.broken = err
			h.cond.Broadcast()
			h.mu.Unlock()
			return err
		}
		r.done = h.clk.now()
		var res struct{ Slot, Class int }
		if status != http.StatusOK || json.Unmarshal(body, &res) != nil || res.Slot != r.k {
			r.failed = true
		} else {
			r.class = res.Class
		}
		h.mu.Lock()
		h.answered[r.wearer] = r.k + 1
		h.cond.Broadcast()
		h.mu.Unlock()
	}
	return nil
}

func (h *httpSender) readAnswer() ([]byte, int, error) {
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("read classify answer: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, fmt.Errorf("read classify answer: %w", err)
	}
	return body, resp.StatusCode, nil
}

// setDeadline bounds the receiver's reads so a hung server fails the run.
func (h *httpSender) setDeadline(t time.Time) { _ = h.conn.SetReadDeadline(t) }

func (h *httpSender) close() { h.conn.Close() }

// streamSender is one wearer's persistent binary stream connection. The
// wearer's next round may not leave before this one is answered, so send
// is synchronous.
type streamSender struct {
	client *loadgen.StreamClient
	clk    clock
}

func dialStream(addr, id string, wearer int, seed int64) (*streamSender, error) {
	// seed+6 keeps the reconnect-jitter stream disjoint from the data
	// streams, as loadgen does.
	c := loadgen.NewStreamClient(addr, id, wearer, 0, seed+6)
	ack, err := c.Connect()
	if err != nil {
		return nil, err
	}
	if ack.NextSlot != 0 {
		c.Close()
		return nil, fmt.Errorf("wearer %d: fresh session starts at slot %d", wearer, ack.NextSlot)
	}
	return &streamSender{client: c}, nil
}

// send implements transport.
func (s *streamSender) send(r *round) error {
	r.sent = s.clk.now()
	class, err := s.client.Round(r.k, r.frames)
	r.done = s.clk.now()
	if err != nil {
		r.failed = true
		return err
	}
	r.class = class
	return nil
}

func (s *streamSender) close() { s.client.Close() }

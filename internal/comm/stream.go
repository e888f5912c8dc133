package comm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"origin/internal/wire"
)

// Stream wire format — the persistent per-session binary uplink.
//
// Where the 6-byte result message carries one already-classified vote, the
// stream protocol carries the raw IMU samples themselves, so the host can
// assemble sliding windows server-side and the client never retransmits the
// overlap between consecutive windows. Samples are int16-quantised with a
// per-frame scale, delta-encoded within each channel, and varint-packed —
// a window's worth of float64 JSON (~7 KiB) becomes a few hundred bytes,
// and a steady-state frame (one hop of new samples) a fraction of that.
//
// Every frame travels in a self-delimiting envelope:
//
//	0     frame type (uint8)
//	1–2   payload length (uint16 LE)
//	3..   payload
//	+4    CRC-32 (IEEE, LE) over type, length and payload
//
// The CRC extends the wire-codec corruption discipline to variable-length
// frames: a flipped bit anywhere in the envelope is detected before any
// payload field is trusted, and the decoder rejects (never panics on)
// damaged input. Payload fields use unsigned varints (uvarint) and zigzag
// varints as noted per frame type.
//
// Frame payloads:
//
//	Hello (client→server, first frame on a connection):
//	  uvarint   protocol version (must be StreamVersion)
//	  uvarint   session id length, then that many bytes of session id
//	  uvarint   resume token length, then that many bytes of token
//	            (the whole field is omitted on a fresh connection — a
//	            tokenless hello is byte-identical to the pre-resume format)
//
//	HelloAck (server→client, response to every accepted hello):
//	  0         flags (bit 0: session state was resumed)
//	  uvarint   resume token length, then that many bytes of token
//	  uvarint   next session slot (rounds classified so far)
//	  uvarint   last class + 2 (0: no result recorded on this stream,
//	            1: abstain, k+2: class k) — lets a reconnecting client
//	            recover a result whose push was lost in the disconnect
//	  uvarint   sensor count, then per sensor:
//	    uvarint next expected frame seq (the per-sensor ack: everything
//	            below it is ingested and must not re-classify)
//
//	IMU (client→server):
//	  0         sensor id (uint8)
//	  1         flags (bit 0: end of round — classify after ingest)
//	  uvarint   per-sensor frame sequence number (starts at 0)
//	  uvarint   samples per channel (n)
//	  float32   quantisation scale (LE; sample ≈ scale × int16)
//	  per channel (Channels channels, channel-major):
//	    zigzag varint  first quantised sample (absolute)
//	    zigzag varint  n−1 deltas against the previous quantised sample
//
//	Result (server→client):
//	  uvarint   slot (session round index)
//	  uvarint   class + 1 (0 encodes the abstain class −1)
//
//	Heartbeat (either direction): empty payload.
//
//	Error (server→client, before close):
//	  0         code (uint8)
//	  uvarint   message length, then that many bytes of message
type streamDoc struct{} //nolint:unused // anchor for the format comment

// StreamVersion is the protocol version Hello must carry.
const StreamVersion = 1

// StreamMagic is the 4-byte connection preamble a client sends before its
// first frame, so a misdirected HTTP request fails fast instead of being
// misparsed as a frame.
var StreamMagic = [4]byte{'O', 'S', 't', '1'}

// Frame types.
const (
	FrameHello     = 1
	FrameIMU       = 2
	FrameResult    = 3
	FrameHeartbeat = 4
	FrameError     = 5
	FrameHelloAck  = 6
)

// Stream error codes (FrameError payloads).
const (
	StreamErrProtocol  = 1 // malformed or out-of-contract frame
	StreamErrSession   = 2 // unknown or evicted session
	StreamErrInternal  = 3 // server-side failure (shutdown, classify error)
	StreamErrSaturated = 4 // round shed after retries (server overloaded)
	StreamErrResume    = 5 // resume token unknown, stale, or expired
)

// MaxStreamToken caps the resume token length in hello and hello-ack frames.
const MaxStreamToken = 128

// Envelope geometry.
const (
	streamHeaderBytes      = 3
	streamCRCBytes         = 4
	StreamEnvelopeOverhead = streamHeaderBytes + streamCRCBytes

	// MaxStreamPayload is the largest payload the 16-bit length field
	// admits; MaxStreamSamples bounds the per-channel sample count of one
	// IMU frame (64 windows' worth — far beyond any sane hop) so a
	// corrupted count cannot drive a huge allocation.
	MaxStreamPayload = 1<<16 - 1
	MaxStreamSamples = 4096
)

// StreamChannels is the per-sensor channel count the IMU frame layout is
// fixed to. It mirrors synth.Channels (pinned by a test) without importing
// the synth package into the codec.
const StreamChannels = 6

// Frame is one decoded envelope: a type tag and its raw payload.
type Frame struct {
	Type    byte
	Payload []byte
}

// crcTable is the IEEE CRC-32 table (the stdlib default polynomial).
var crcTable = crc32.MakeTable(crc32.IEEE)

// AppendFrame appends the enveloped frame (header, payload, CRC) to dst and
// returns the extended slice.
func AppendFrame(dst []byte, typ byte, payload []byte) ([]byte, error) {
	if len(payload) > MaxStreamPayload {
		return dst, fmt.Errorf("comm: stream payload %d bytes exceeds %d", len(payload), MaxStreamPayload)
	}
	start := len(dst)
	dst = append(dst, typ, byte(len(payload)), byte(len(payload)>>8))
	dst = append(dst, payload...)
	crc := crc32.Checksum(dst[start:], crcTable)
	return binary.LittleEndian.AppendUint32(dst, crc), nil
}

// ReadFrame reads one enveloped frame from r, verifying the CRC before any
// payload byte is trusted. It distinguishes a clean EOF (io.EOF before the
// first header byte) from a truncated frame (io.ErrUnexpectedEOF).
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [streamHeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, io.ErrUnexpectedEOF
	}
	n := int(binary.LittleEndian.Uint16(hdr[1:3]))
	body := make([]byte, n+streamCRCBytes)
	if _, err := io.ReadFull(r, body); err != nil {
		return Frame{}, io.ErrUnexpectedEOF
	}
	want := binary.LittleEndian.Uint32(body[n:])
	crc := crc32.Checksum(hdr[:], crcTable)
	crc = crc32.Update(crc, crcTable, body[:n])
	if crc != want {
		return Frame{}, fmt.Errorf("comm: stream frame CRC mismatch (type %d, %d payload bytes)", hdr[0], n)
	}
	return Frame{Type: hdr[0], Payload: body[:n]}, nil
}

// DecodeFrameBytes decodes exactly one enveloped frame from b, rejecting
// trailing bytes — the entry point for fault-injection tests that carry
// whole frames through a comm.Link.
func DecodeFrameBytes(b []byte) (Frame, error) {
	if len(b) < StreamEnvelopeOverhead {
		return Frame{}, fmt.Errorf("comm: stream frame is %d bytes, want at least %d", len(b), StreamEnvelopeOverhead)
	}
	n := int(binary.LittleEndian.Uint16(b[1:3]))
	if len(b) != StreamEnvelopeOverhead+n {
		return Frame{}, fmt.Errorf("comm: stream frame is %d bytes, envelope says %d", len(b), StreamEnvelopeOverhead+n)
	}
	want := binary.LittleEndian.Uint32(b[streamHeaderBytes+n:])
	if crc32.Checksum(b[:streamHeaderBytes+n], crcTable) != want {
		return Frame{}, fmt.Errorf("comm: stream frame CRC mismatch (type %d, %d payload bytes)", b[0], n)
	}
	return Frame{Type: b[0], Payload: b[streamHeaderBytes : streamHeaderBytes+n]}, nil
}

// Hello is the decoded hello payload. Token is empty on a fresh connection;
// a reconnecting client presents the token its last hello-ack carried.
type Hello struct {
	Version int
	Session string
	Token   string
}

// EncodeHello appends an enveloped hello frame to dst. An empty token is
// omitted from the wire entirely, keeping fresh hellos byte-identical to the
// pre-resume format.
func EncodeHello(dst []byte, h Hello) ([]byte, error) {
	if h.Version < 0 || h.Session == "" || len(h.Session) > 255 || len(h.Token) > MaxStreamToken {
		return dst, fmt.Errorf("comm: invalid hello %+v", h)
	}
	p := binary.AppendUvarint(nil, uint64(h.Version))
	p = wire.AppendString(p, h.Session)
	if h.Token != "" {
		p = wire.AppendString(p, h.Token)
	}
	return AppendFrame(dst, FrameHello, p)
}

// DecodeHello parses a hello payload. The resume token field is optional,
// but when present it must be non-empty — an explicit zero-length token has
// no distinct encoding, so it is rejected to keep round-trips exact.
func DecodeHello(p []byte) (Hello, error) {
	d := wire.NewReader(p)
	v := d.Uvarint()
	id := d.Str(255)
	if d.Err() != nil {
		return Hello{}, fmt.Errorf("comm: malformed hello")
	}
	var token string
	if !d.Done() {
		token = d.Str(MaxStreamToken)
		if !d.Done() || token == "" {
			return Hello{}, fmt.Errorf("comm: malformed hello token")
		}
	}
	if v != StreamVersion {
		return Hello{}, fmt.Errorf("comm: unsupported stream version %d (want %d)", v, StreamVersion)
	}
	return Hello{Version: int(v), Session: id, Token: token}, nil
}

// HelloAck is the decoded hello-ack payload: the server's answer to an
// accepted hello, carrying the resume token for future reconnects and the
// acks a resuming client needs to re-send exactly the unacked frames.
type HelloAck struct {
	// Resumed reports whether parked session state was reattached.
	Resumed bool
	// Token is the resume token for this session's stream lineage. It is
	// stable across reconnects, so an ack lost mid-write never strands the
	// client with a stale token.
	Token string
	// NextSlot is the number of rounds the session has classified; the next
	// completed round answers this slot.
	NextSlot int
	// LastClass is the class of the most recent round classified over this
	// stream lineage, valid only when HasLast — a reconnecting client whose
	// result push was lost recovers it from here.
	LastClass int
	HasLast   bool
	// NextSeqs holds, per sensor id, the next frame seq the assembler
	// expects; every seq below it is ingested and will be dropped as a dup.
	NextSeqs []int
}

// helloAckFlagResumed is the hello-ack flags bit marking a resumed session.
const helloAckFlagResumed = 0x01

// EncodeHelloAck appends an enveloped hello-ack frame to dst.
func EncodeHelloAck(dst []byte, a HelloAck) ([]byte, error) {
	if a.Token == "" || len(a.Token) > MaxStreamToken {
		return dst, fmt.Errorf("comm: invalid hello-ack token %q", a.Token)
	}
	if a.NextSlot < 0 || len(a.NextSeqs) > 255 {
		return dst, fmt.Errorf("comm: invalid hello-ack %+v", a)
	}
	if a.HasLast && a.LastClass < -1 {
		return dst, fmt.Errorf("comm: invalid hello-ack last class %d", a.LastClass)
	}
	var flags byte
	if a.Resumed {
		flags |= helloAckFlagResumed
	}
	p := []byte{flags}
	p = wire.AppendString(p, a.Token)
	p = binary.AppendUvarint(p, uint64(a.NextSlot))
	last := uint64(0)
	if a.HasLast {
		last = uint64(a.LastClass + 2)
	}
	p = binary.AppendUvarint(p, last)
	p = binary.AppendUvarint(p, uint64(len(a.NextSeqs)))
	for s, seq := range a.NextSeqs {
		if seq < 0 {
			return dst, fmt.Errorf("comm: invalid hello-ack seq %d for sensor %d", seq, s)
		}
		p = binary.AppendUvarint(p, uint64(seq))
	}
	return AppendFrame(dst, FrameHelloAck, p)
}

// DecodeHelloAck parses a hello-ack payload.
func DecodeHelloAck(p []byte) (HelloAck, error) {
	d := wire.NewReader(p)
	flags := d.Byte()
	token := d.Str(MaxStreamToken)
	if d.Err() != nil || token == "" {
		return HelloAck{}, fmt.Errorf("comm: malformed hello-ack token")
	}
	slot := d.Uvarint()
	last := d.Uvarint()
	sensors := d.Uvarint()
	if d.Err() != nil || flags&^byte(helloAckFlagResumed) != 0 ||
		slot > math.MaxInt32 || last > 257 || sensors > 255 {
		return HelloAck{}, fmt.Errorf("comm: malformed hello-ack")
	}
	a := HelloAck{
		Resumed:  flags&helloAckFlagResumed != 0,
		Token:    token,
		NextSlot: int(slot),
	}
	if last > 0 {
		a.HasLast = true
		a.LastClass = int(last) - 2
	}
	if sensors > 0 {
		a.NextSeqs = make([]int, sensors)
		for s := range a.NextSeqs {
			seq := d.Uvarint()
			if seq > math.MaxInt32 {
				return HelloAck{}, fmt.Errorf("comm: hello-ack seq out of range")
			}
			a.NextSeqs[s] = int(seq)
		}
	}
	if !d.Done() {
		return HelloAck{}, fmt.Errorf("comm: malformed hello-ack")
	}
	return a, nil
}

// IMUFrame is one decoded sample batch: n new samples per channel for one
// sensor, already dequantised. Samples is channel-major (StreamChannels
// rows of equal length), the layout of a synth window.
type IMUFrame struct {
	// Sensor is the reporting sensor id (0–255, validated against the
	// model geometry by the receiver).
	Sensor int
	// Seq is the per-sensor frame sequence number. The receiver requires
	// consecutive sequence numbers: duplicates are dropped, gaps rejected.
	Seq int
	// EndRound marks the last frame of a classify round.
	EndRound bool
	// Samples holds the dequantised samples, channel-major.
	Samples [][]float64
}

// imuFlagEndRound is the IMU frame flags bit marking the end of a round.
const imuFlagEndRound = 0x01

// QuantizeScale returns the per-frame quantisation scale for a sample batch:
// the smallest scale that fits the largest magnitude into int16 range. A
// silent (all-zero) batch quantises with scale 0.
func QuantizeScale(samples [][]float64) float32 {
	maxAbs := 0.0
	for _, row := range samples {
		for _, v := range row {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
	}
	if maxAbs == 0 {
		return 0
	}
	return float32(maxAbs / 32767)
}

// EncodeIMU appends an enveloped IMU frame to dst: samples are quantised to
// int16 with the frame scale, delta-encoded per channel, and zigzag-varint
// packed. The encoding is lossy (quantisation); decoding is exact given the
// wire bytes, which is what the determinism contract needs — both the
// server and a serial replay decode identical bytes to identical floats.
func EncodeIMU(dst []byte, f IMUFrame) ([]byte, error) {
	if f.Sensor < 0 || f.Sensor > 255 {
		return dst, fmt.Errorf("comm: sensor id %d does not fit the stream format", f.Sensor)
	}
	if f.Seq < 0 {
		return dst, fmt.Errorf("comm: negative stream seq %d", f.Seq)
	}
	if len(f.Samples) != StreamChannels {
		return dst, fmt.Errorf("comm: IMU frame has %d channels, want %d", len(f.Samples), StreamChannels)
	}
	n := len(f.Samples[0])
	if n == 0 || n > MaxStreamSamples {
		return dst, fmt.Errorf("comm: IMU frame sample count %d outside [1,%d]", n, MaxStreamSamples)
	}
	for c, row := range f.Samples {
		if len(row) != n {
			return dst, fmt.Errorf("comm: IMU frame channel %d has %d samples, want %d", c, len(row), n)
		}
		for t, v := range row {
			// Non-finite samples are rejected up front: converting NaN to an
			// integer grid is implementation-defined, which would break the
			// bit-identical replay contract.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return dst, fmt.Errorf("comm: IMU frame channel %d sample %d is not finite", c, t)
			}
		}
	}
	scale := QuantizeScale(f.Samples)
	var flags byte
	if f.EndRound {
		flags |= imuFlagEndRound
	}
	p := make([]byte, 0, 2+2*binary.MaxVarintLen64+4+StreamChannels*n*2)
	p = append(p, byte(f.Sensor), flags)
	p = binary.AppendUvarint(p, uint64(f.Seq))
	p = binary.AppendUvarint(p, uint64(n))
	p = binary.LittleEndian.AppendUint32(p, math.Float32bits(scale))
	for _, row := range f.Samples {
		prev := int64(0)
		for t, v := range row {
			q := quantize(v, scale)
			if t == 0 {
				p = wire.AppendZigzag(p, q)
			} else {
				p = wire.AppendZigzag(p, q-prev)
			}
			prev = q
		}
	}
	return AppendFrame(dst, FrameIMU, p)
}

// quantize maps a sample onto the int16 grid of the given scale.
func quantize(v float64, scale float32) int64 {
	if scale == 0 {
		return 0
	}
	q := math.Round(v / float64(scale))
	if q > 32767 {
		q = 32767
	}
	if q < -32767 {
		q = -32767
	}
	return int64(q)
}

// DecodeIMU parses an IMU payload, reconstructing the dequantised samples.
// Every accumulated quantised value must stay within int16 range and the
// payload must be exactly consumed — out-of-range accumulators and trailing
// bytes both mark corruption that slipped past the CRC odds.
func DecodeIMU(p []byte) (IMUFrame, error) {
	d := wire.NewReader(p)
	sensor := d.Byte()
	flags := d.Byte()
	seq := d.Uvarint()
	n := d.Uvarint()
	if d.Err() != nil {
		return IMUFrame{}, fmt.Errorf("comm: malformed IMU frame header")
	}
	if n == 0 || n > MaxStreamSamples {
		return IMUFrame{}, fmt.Errorf("comm: IMU frame sample count %d outside [1,%d]", n, MaxStreamSamples)
	}
	if flags&^imuFlagEndRound != 0 {
		return IMUFrame{}, fmt.Errorf("comm: IMU frame has unknown flags %#x", flags)
	}
	scaleBits := d.Uint32()
	scale := math.Float32frombits(scaleBits)
	if d.Err() != nil {
		return IMUFrame{}, fmt.Errorf("comm: malformed IMU frame header")
	}
	if scale < 0 || math.IsNaN(float64(scale)) || math.IsInf(float64(scale), 0) {
		return IMUFrame{}, fmt.Errorf("comm: IMU frame scale %v invalid", scale)
	}
	f := IMUFrame{
		Sensor:   int(sensor),
		Seq:      int(seq),
		EndRound: flags&imuFlagEndRound != 0,
		Samples:  make([][]float64, StreamChannels),
	}
	if seq > math.MaxInt32 {
		return IMUFrame{}, fmt.Errorf("comm: IMU frame seq %d out of range", seq)
	}
	flat := make([]float64, StreamChannels*int(n))
	for c := 0; c < StreamChannels; c++ {
		row := flat[c*int(n) : (c+1)*int(n)]
		q := int64(0)
		for t := range row {
			dq := d.Zigzag()
			if t == 0 {
				q = dq
			} else {
				q += dq
			}
			if q > 32767 || q < -32767 {
				return IMUFrame{}, fmt.Errorf("comm: IMU frame channel %d sample %d overflows int16", c, t)
			}
			row[t] = float64(scale) * float64(q)
		}
		if d.Err() != nil {
			return IMUFrame{}, fmt.Errorf("comm: truncated IMU frame samples")
		}
		f.Samples[c] = row
	}
	if !d.Done() {
		return IMUFrame{}, fmt.Errorf("comm: %d trailing bytes after IMU frame", len(d.Rest()))
	}
	return f, nil
}

// StreamResult is the decoded result-push payload.
type StreamResult struct {
	// Slot is the session round the result answers.
	Slot int
	// Class is the fused classification (-1 = abstained).
	Class int
}

// EncodeStreamResult appends an enveloped result frame to dst.
func EncodeStreamResult(dst []byte, r StreamResult) ([]byte, error) {
	if r.Slot < 0 || r.Class < -1 {
		return dst, fmt.Errorf("comm: invalid stream result %+v", r)
	}
	p := binary.AppendUvarint(nil, uint64(r.Slot))
	p = binary.AppendUvarint(p, uint64(r.Class+1))
	return AppendFrame(dst, FrameResult, p)
}

// DecodeStreamResult parses a result payload.
func DecodeStreamResult(p []byte) (StreamResult, error) {
	d := wire.NewReader(p)
	slot := d.Uvarint()
	class := d.Uvarint()
	if !d.Done() {
		return StreamResult{}, fmt.Errorf("comm: malformed stream result")
	}
	if slot > math.MaxInt32 || class > 256 {
		return StreamResult{}, fmt.Errorf("comm: stream result out of range")
	}
	return StreamResult{Slot: int(slot), Class: int(class) - 1}, nil
}

// StreamError is the decoded error payload.
type StreamError struct {
	Code int
	Msg  string
}

// EncodeStreamError appends an enveloped error frame to dst.
func EncodeStreamError(dst []byte, e StreamError) ([]byte, error) {
	if e.Code < 0 || e.Code > 255 || len(e.Msg) > 1024 {
		return dst, fmt.Errorf("comm: invalid stream error %+v", e)
	}
	p := []byte{byte(e.Code)}
	p = wire.AppendString(p, e.Msg)
	return AppendFrame(dst, FrameError, p)
}

// DecodeStreamError parses an error payload.
func DecodeStreamError(p []byte) (StreamError, error) {
	d := wire.NewReader(p)
	code := d.Byte()
	msg := d.Str(1024)
	if !d.Done() {
		return StreamError{}, fmt.Errorf("comm: malformed stream error")
	}
	return StreamError{Code: int(code), Msg: msg}, nil
}

// EncodeHeartbeat appends an enveloped heartbeat frame to dst.
func EncodeHeartbeat(dst []byte) ([]byte, error) {
	return AppendFrame(dst, FrameHeartbeat, nil)
}

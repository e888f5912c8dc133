package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"origin/internal/ensemble"
	"origin/internal/host"
	"origin/internal/wire"
)

// Versioned session codec. A SessionState snapshot is everything a replica
// needs to continue a session another replica started: identity, per-session
// options, the round counter, the host device's recall store and
// anticipation, the adapted confidence matrix, the serving telemetry
// counters, and an opaque attachment the stream front uses for its
// window-assembly lineage (internal/serve owns that encoding; fleet carries
// it without interpreting a byte).
//
// Wire layout: a 4-byte magic, a uvarint codec version, then version-1
// sections. Strings are uvarint length + bytes; signed integers are zigzag
// varints; floats travel as raw IEEE-754 bits inside the embedded binary
// matrix section (ensemble.AppendBinary). The decoder is fuzzed: damaged
// input must be rejected, never panic and never over-allocate.

// sessionMagic prefixes every session snapshot.
var sessionMagic = [4]byte{'O', 'S', 'S', '1'}

// SessionCodecVersion is the current snapshot codec version. Decoders accept
// exactly the versions they know; an unknown version fails loudly so a mixed
// fleet cannot half-parse a newer replica's snapshot.
const SessionCodecVersion = 1

// Decode caps — a corrupted length cannot drive a huge allocation.
const (
	maxSessionID      = 255
	maxSessionProfile = 255
	maxRecallEntries  = 4096
	maxAttachment     = 1 << 22
)

// SessionCounters are the serving telemetry counters that migrate with a
// session (the subset of obs.Telemetry a serving session mutates).
type SessionCounters struct {
	Slots             int `json:"slots"`
	FreshVotes        int `json:"freshVotes"`
	RecallVotes       int `json:"recallVotes"`
	AdaptationUpdates int `json:"adaptationUpdates"`
	QuorumAbstentions int `json:"quorumAbstentions"`
}

// SessionState is the portable snapshot of one serving session.
type SessionState struct {
	ID      string
	User    int64
	Profile string
	Opts    Opts
	// Slot is the number of rounds classified — also the snapshot's store
	// version (see StateStore).
	Slot     int
	Device   host.DeviceState
	Matrix   *ensemble.Matrix
	Counters SessionCounters
	// Attachment is the stream front's opaque lineage section (nil for
	// sessions served over HTTP only).
	Attachment []byte
}

const (
	sessOptsFreeze  = 0x01
	sessRecallValid = 0x01
)

// EncodeSessionState renders a snapshot in the current codec version.
func EncodeSessionState(st SessionState) ([]byte, error) {
	if st.ID == "" || len(st.ID) > maxSessionID {
		return nil, fmt.Errorf("fleet: session id %q not encodable", st.ID)
	}
	if st.Profile == "" || len(st.Profile) > maxSessionProfile {
		return nil, fmt.Errorf("fleet: profile %q not encodable", st.Profile)
	}
	if st.Slot < 0 || st.Opts.StaleLimit < 0 || st.Opts.Quorum < 0 {
		return nil, fmt.Errorf("fleet: negative snapshot fields")
	}
	if len(st.Device.Recall) == 0 || len(st.Device.Recall) > maxRecallEntries {
		return nil, fmt.Errorf("fleet: snapshot has %d recall entries", len(st.Device.Recall))
	}
	if st.Matrix == nil {
		return nil, fmt.Errorf("fleet: snapshot without a matrix")
	}
	if len(st.Attachment) > maxAttachment {
		return nil, fmt.Errorf("fleet: attachment %d bytes exceeds %d", len(st.Attachment), maxAttachment)
	}
	b := append([]byte(nil), sessionMagic[:]...)
	b = binary.AppendUvarint(b, SessionCodecVersion)
	b = wire.AppendString(b, st.ID)
	b = wire.AppendZigzag(b, st.User)
	b = wire.AppendString(b, st.Profile)
	b = binary.AppendUvarint(b, uint64(st.Opts.StaleLimit))
	b = binary.AppendUvarint(b, uint64(st.Opts.Quorum))
	var oflags byte
	if st.Opts.Freeze {
		oflags |= sessOptsFreeze
	}
	b = append(b, oflags)
	b = binary.AppendUvarint(b, uint64(st.Slot))

	// Device section.
	b = binary.AppendUvarint(b, uint64(len(st.Device.Recall)))
	for _, e := range st.Device.Recall {
		b = appendRecall(b, e)
	}
	b = wire.AppendZigzag(b, int64(st.Device.Anticipated))
	b = appendRecall(b, st.Device.LastFresh)
	b = binary.AppendUvarint(b, uint64(st.Device.Received))
	b = binary.AppendUvarint(b, uint64(st.Device.AdaptsApplied))

	// Counters section.
	for _, v := range []int{st.Counters.Slots, st.Counters.FreshVotes, st.Counters.RecallVotes,
		st.Counters.AdaptationUpdates, st.Counters.QuorumAbstentions} {
		if v < 0 {
			return nil, fmt.Errorf("fleet: negative telemetry counter")
		}
		b = binary.AppendUvarint(b, uint64(v))
	}

	// Matrix section (self-delimiting).
	b = st.Matrix.AppendBinary(b)

	// Attachment section.
	b = binary.AppendUvarint(b, uint64(len(st.Attachment)))
	b = append(b, st.Attachment...)
	return b, nil
}

// DecodeSessionState parses a snapshot, validating every field. The device
// section is range-checked again by host.Device.Restore at install time
// against the live model geometry; here only structural sanity is enforced.
func DecodeSessionState(b []byte) (SessionState, error) {
	var st SessionState
	if len(b) < len(sessionMagic) || string(b[:4]) != string(sessionMagic[:]) {
		return st, fmt.Errorf("fleet: bad session snapshot magic")
	}
	d := wire.NewReader(b[len(sessionMagic):])
	if v := d.Uvarint(); v != SessionCodecVersion {
		if d.Err() == nil {
			return st, fmt.Errorf("fleet: unsupported session codec version %d (have %d)", v, SessionCodecVersion)
		}
		return st, fmt.Errorf("fleet: malformed session snapshot header")
	}
	st.ID = d.Str(maxSessionID)
	st.User = d.Zigzag()
	st.Profile = d.Str(maxSessionProfile)
	st.Opts.StaleLimit = d.Count(math.MaxInt32)
	st.Opts.Quorum = d.Count(math.MaxInt32)
	oflags := d.Byte()
	st.Opts.Freeze = oflags&sessOptsFreeze != 0
	st.Slot = d.Count(math.MaxInt32)
	if d.Err() != nil || st.ID == "" || st.Profile == "" || oflags&^byte(sessOptsFreeze) != 0 {
		return SessionState{}, fmt.Errorf("fleet: malformed session snapshot header")
	}

	n := d.Count(maxRecallEntries)
	if d.Err() != nil || n == 0 {
		return SessionState{}, fmt.Errorf("fleet: malformed recall section")
	}
	st.Device.Recall = make([]host.RecallState, n)
	for i := range st.Device.Recall {
		st.Device.Recall[i] = readRecall(&d)
	}
	st.Device.Anticipated = int(d.Zigzag())
	st.Device.LastFresh = readRecall(&d)
	st.Device.Received = d.Count(math.MaxInt32)
	st.Device.AdaptsApplied = d.Count(math.MaxInt32)

	st.Counters.Slots = d.Count(math.MaxInt32)
	st.Counters.FreshVotes = d.Count(math.MaxInt32)
	st.Counters.RecallVotes = d.Count(math.MaxInt32)
	st.Counters.AdaptationUpdates = d.Count(math.MaxInt32)
	st.Counters.QuorumAbstentions = d.Count(math.MaxInt32)
	if d.Err() != nil {
		return SessionState{}, fmt.Errorf("fleet: malformed session snapshot: %v", d.Err())
	}

	m, consumed, err := ensemble.DecodeBinary(d.Rest())
	if err != nil {
		return SessionState{}, fmt.Errorf("fleet: session snapshot matrix: %w", err)
	}
	d.Bytes(consumed) // consumed by the matrix decoder
	st.Matrix = m

	an := d.Count(maxAttachment)
	if d.Err() != nil {
		return SessionState{}, fmt.Errorf("fleet: malformed attachment section")
	}
	if an > 0 {
		st.Attachment = append([]byte(nil), d.Bytes(an)...)
	}
	if !d.Done() {
		return SessionState{}, fmt.Errorf("fleet: session snapshot has trailing or missing bytes")
	}
	return st, nil
}

func appendRecall(b []byte, e host.RecallState) []byte {
	var flags byte
	if e.Valid {
		flags |= sessRecallValid
	}
	b = append(b, flags)
	b = wire.AppendZigzag(b, int64(e.Class))
	b = wire.AppendF64(b, e.Confidence)
	return binary.AppendUvarint(b, uint64(e.Slot))
}

// readRecall reads one appendRecall entry.
func readRecall(d *wire.Reader) host.RecallState {
	flags := d.Byte()
	if flags&^byte(sessRecallValid) != 0 {
		d.Fail(errors.New("unknown recall flags"))
	}
	class := int(d.Zigzag())
	conf := d.F64()
	slot := d.Count(math.MaxInt32)
	if math.IsNaN(conf) || math.IsInf(conf, 0) || conf < 0 {
		d.Fail(errors.New("invalid recall confidence"))
	}
	if class < -1 || class > math.MaxInt32 {
		d.Fail(errors.New("recall class out of range"))
	}
	return host.RecallState{Class: class, Confidence: conf, Slot: slot, Valid: flags&sessRecallValid != 0}
}

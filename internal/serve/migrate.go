package serve

import (
	"encoding/binary"
	"fmt"
	"math"

	"origin/internal/synth"
	"origin/internal/wire"
)

// Stream-lineage attachment codec. The fleet session snapshot carries an
// opaque attachment section for the serving front; the stream server uses it
// to externalize everything a resume needs that lives outside the session
// proper: the resume token, the last classified result (lost-push recovery),
// and the window assembler (per-sensor rings, sequence numbers, and the
// in-progress round order). With the attachment in the state store, a client
// whose replica died can present its resume token to whichever replica the
// router now picks and continue mid-window — the cross-replica analogue of
// the in-replica parked-state resume.
//
// The encoding mirrors the fleet codec conventions: magic + uvarint version,
// uvarint-length strings, zigzag ints, raw IEEE-754 float bits.

var attachMagic = [4]byte{'O', 'S', 'A', '1'}

const (
	attachVersion    = 1
	attachHasLast    = 0x01
	attachMaxToken   = 64
	attachMaxSensors = 4096
	attachMaxWindow  = 1 << 16
)

// encodeStreamAttachment snapshots one stream lineage. The caller must be
// the connection goroutine that owns st (no lock is taken).
func encodeStreamAttachment(st *streamState) []byte {
	a := st.asm
	b := append([]byte(nil), attachMagic[:]...)
	b = binary.AppendUvarint(b, attachVersion)
	b = wire.AppendString(b, st.token)
	var flags byte
	if st.hasLast {
		flags |= attachHasLast
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(st.lastSlot))
	b = wire.AppendZigzag(b, int64(st.lastClass))
	b = binary.AppendUvarint(b, uint64(len(a.sensors)))
	b = binary.AppendUvarint(b, uint64(a.window))
	for i := range a.sensors {
		ss := &a.sensors[i]
		b = binary.AppendUvarint(b, uint64(ss.nextSeq))
		b = binary.AppendUvarint(b, uint64(ss.filled))
		if ss.ring == nil {
			b = append(b, 0)
			continue
		}
		b = append(b, 1)
		for _, v := range ss.ring {
			b = wire.AppendF64(b, v)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(a.round)))
	for _, sensor := range a.round {
		b = binary.AppendUvarint(b, uint64(sensor))
	}
	return b
}

// decodeStreamAttachment rebuilds a parked-equivalent stream state from an
// attachment, validating it against the live model geometry. The returned
// state has no owner; attach installs one.
func decodeStreamAttachment(blob []byte, session string, sensors, window int) (*streamState, error) {
	if len(blob) < len(attachMagic) || string(blob[:4]) != string(attachMagic[:]) {
		return nil, fmt.Errorf("serve: bad stream attachment magic")
	}
	d := wire.NewReader(blob[len(attachMagic):])
	if v := d.Uvarint(); d.Err() != nil || v != attachVersion {
		return nil, fmt.Errorf("serve: unsupported stream attachment version")
	}
	token := d.Str(attachMaxToken)
	flags := d.Byte()
	lastSlot := d.Count(math.MaxInt32)
	lastClass := int(d.Zigzag())
	ns := d.Count(attachMaxSensors)
	win := d.Count(attachMaxWindow)
	if d.Err() != nil || token == "" || flags&^byte(attachHasLast) != 0 {
		return nil, fmt.Errorf("serve: malformed stream attachment header")
	}
	if ns != sensors || win != window {
		return nil, fmt.Errorf("serve: stream attachment geometry %dx%d, model wants %dx%d", ns, win, sensors, window)
	}
	if lastClass < -1 {
		return nil, fmt.Errorf("serve: stream attachment last class %d", lastClass)
	}
	asm := NewStreamAssembler(sensors, window)
	for i := 0; i < sensors; i++ {
		ss := &asm.sensors[i]
		ss.nextSeq = d.Count(math.MaxInt32)
		ss.filled = d.Count(window)
		hasRing := d.Byte()
		if d.Err() != nil || hasRing > 1 {
			return nil, fmt.Errorf("serve: malformed stream attachment sensor %d", i)
		}
		if hasRing == 1 {
			ss.ring = make([]float64, synth.Channels*window)
			for j := range ss.ring {
				ss.ring[j] = d.F64()
			}
		} else if ss.filled != 0 || ss.nextSeq != 0 {
			return nil, fmt.Errorf("serve: stream attachment sensor %d has progress but no ring", i)
		}
	}
	nr := d.Count(sensors)
	for i := 0; i < nr; i++ {
		sensor := d.Count(sensors - 1)
		if d.Err() != nil {
			break
		}
		if asm.inRound[sensor] {
			return nil, fmt.Errorf("serve: stream attachment repeats sensor %d in round order", sensor)
		}
		asm.inRound[sensor] = true
		asm.round = append(asm.round, sensor)
	}
	if !d.Done() {
		return nil, fmt.Errorf("serve: malformed stream attachment")
	}
	return &streamState{
		session:   session,
		token:     token,
		asm:       asm,
		lastSlot:  lastSlot,
		lastClass: lastClass,
		hasLast:   flags&attachHasLast != 0,
	}, nil
}

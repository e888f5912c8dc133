package ensemble

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"origin/internal/wire"
)

// Matrix persistence. The adapted confidence matrix is the host's learned
// personalisation (Fig. 6); persisting it means a device reboot or app
// restart resumes with the user's weights instead of the factory ones.
// The format is line-oriented text: a magic line, a header with geometry
// and tuning, then one row of weights per sensor.

const matrixMagic = "ORGNCMX1"

// Save writes the matrix to w.
func (m *Matrix) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, matrixMagic)
	fmt.Fprintf(bw, "%d %d %.17g %.17g %.17g %t\n",
		m.sensors, m.classes, m.Alpha, m.RecallDiscount, m.RecallDecayPerSlot, m.UseInstantFresh)
	for s := 0; s < m.sensors; s++ {
		for c := 0; c < m.classes; c++ {
			if c > 0 {
				fmt.Fprint(bw, " ")
			}
			fmt.Fprintf(bw, "%.17g", m.w[s][c])
		}
		fmt.Fprintln(bw)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("ensemble: save matrix: %w", err)
	}
	return nil
}

// LoadMatrix reads a matrix written by Save.
func LoadMatrix(r io.Reader) (*Matrix, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() || strings.TrimSpace(sc.Text()) != matrixMagic {
		return nil, fmt.Errorf("ensemble: bad matrix magic")
	}
	if !sc.Scan() {
		return nil, fmt.Errorf("ensemble: missing matrix header")
	}
	fields := strings.Fields(sc.Text())
	if len(fields) != 6 {
		return nil, fmt.Errorf("ensemble: matrix header has %d fields, want 6", len(fields))
	}
	sensors, err1 := strconv.Atoi(fields[0])
	classes, err2 := strconv.Atoi(fields[1])
	alpha, err3 := strconv.ParseFloat(fields[2], 64)
	discount, err4 := strconv.ParseFloat(fields[3], 64)
	decay, err5 := strconv.ParseFloat(fields[4], 64)
	instant, err6 := strconv.ParseBool(fields[5])
	for _, err := range []error{err1, err2, err3, err4, err5, err6} {
		if err != nil {
			return nil, fmt.Errorf("ensemble: matrix header: %w", err)
		}
	}
	if sensors <= 0 || classes <= 0 {
		return nil, fmt.Errorf("ensemble: invalid matrix geometry %d×%d", sensors, classes)
	}
	m := NewMatrix(sensors, classes)
	m.Alpha = alpha
	m.RecallDiscount = discount
	m.RecallDecayPerSlot = decay
	m.UseInstantFresh = instant
	for s := 0; s < sensors; s++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("ensemble: matrix truncated at row %d", s)
		}
		cells := strings.Fields(sc.Text())
		if len(cells) != classes {
			return nil, fmt.Errorf("ensemble: matrix row %d has %d cells, want %d", s, len(cells), classes)
		}
		for c, cell := range cells {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("ensemble: matrix row %d col %d: %w", s, c, err)
			}
			if v < 0 {
				return nil, fmt.Errorf("ensemble: matrix row %d col %d negative", s, c)
			}
			m.w[s][c] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ensemble: matrix scan: %w", err)
	}
	return m, nil
}

// Binary matrix section — the compact codec the portable session snapshot
// embeds (see internal/fleet's session codec). Unlike the text format above,
// which exists for human-inspectable files, this section preserves every
// float64 bit pattern exactly and is designed to be concatenated with other
// sections: DecodeBinary reports how many bytes it consumed.
//
// Layout (all integers uvarint, all floats raw IEEE-754 bits, little-endian):
//
//	uvarint  sensors
//	uvarint  classes
//	float64  Alpha
//	float64  RecallDiscount
//	float64  RecallDecayPerSlot
//	byte     flags (bit 0: UseInstantFresh)
//	float64  weights, row-major (sensors × classes)

// maxBinaryMatrixDim bounds decoded geometry so a corrupted header cannot
// drive a huge allocation.
const maxBinaryMatrixDim = 4096

const binaryInstantFreshFlag = 0x01

// AppendBinary appends the binary matrix section to dst and returns the
// extended slice.
func (m *Matrix) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.sensors))
	dst = binary.AppendUvarint(dst, uint64(m.classes))
	dst = wire.AppendF64(dst, m.Alpha)
	dst = wire.AppendF64(dst, m.RecallDiscount)
	dst = wire.AppendF64(dst, m.RecallDecayPerSlot)
	var flags byte
	if m.UseInstantFresh {
		flags |= binaryInstantFreshFlag
	}
	dst = append(dst, flags)
	for s := range m.w {
		for _, v := range m.w[s] {
			dst = wire.AppendF64(dst, v)
		}
	}
	return dst
}

// DecodeBinary parses one binary matrix section from the front of b,
// returning the matrix and the number of bytes consumed. Trailing bytes are
// the caller's (the session codec packs further sections after it). The
// decoder rejects, never panics on, damaged input: invalid geometry,
// non-finite tuning knobs, and negative or non-finite weights all fail —
// the same invariants NewMatrix/Set enforce on the write side.
func DecodeBinary(b []byte) (*Matrix, int, error) {
	d := wire.NewReader(b)
	sensors := d.Count(maxBinaryMatrixDim)
	classes := d.Count(maxBinaryMatrixDim)
	if d.Err() != nil || sensors == 0 || classes == 0 {
		return nil, 0, fmt.Errorf("ensemble: binary matrix geometry invalid")
	}
	alpha, discount, decay := d.F64(), d.F64(), d.F64()
	flags := d.Byte()
	if d.Err() != nil {
		return nil, 0, fmt.Errorf("ensemble: binary matrix header truncated")
	}
	for _, v := range []float64{alpha, discount, decay} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, 0, fmt.Errorf("ensemble: binary matrix tuning knob not finite")
		}
	}
	if flags&^byte(binaryInstantFreshFlag) != 0 {
		return nil, 0, fmt.Errorf("ensemble: binary matrix has unknown flags %#x", flags)
	}
	m := NewMatrix(sensors, classes)
	m.Alpha = alpha
	m.RecallDiscount = discount
	m.RecallDecayPerSlot = decay
	m.UseInstantFresh = flags&binaryInstantFreshFlag != 0
	for s := range m.w {
		for c := range m.w[s] {
			v := d.F64()
			if d.Err() != nil {
				return nil, 0, fmt.Errorf("ensemble: binary matrix truncated at row %d", s)
			}
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, 0, fmt.Errorf("ensemble: binary matrix weight (%d,%d) invalid", s, c)
			}
			m.w[s][c] = v
		}
	}
	return m, len(b) - len(d.Rest()), nil
}

// CopyFrom overwrites this matrix's weights and tuning knobs with src's.
// The geometries must match: restoring a snapshot onto a session whose model
// has a different shape is a deployment mismatch, not a recoverable state.
func (m *Matrix) CopyFrom(src *Matrix) error {
	if src == nil {
		return fmt.Errorf("ensemble: CopyFrom nil matrix")
	}
	if src.sensors != m.sensors || src.classes != m.classes {
		return fmt.Errorf("ensemble: CopyFrom geometry %d×%d onto %d×%d",
			src.sensors, src.classes, m.sensors, m.classes)
	}
	m.Alpha = src.Alpha
	m.RecallDiscount = src.RecallDiscount
	m.RecallDecayPerSlot = src.RecallDecayPerSlot
	m.UseInstantFresh = src.UseInstantFresh
	for s := range m.w {
		copy(m.w[s], src.w[s])
	}
	return nil
}

// SaveFile writes the matrix to path.
func (m *Matrix) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("ensemble: save %s: %w", path, err)
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadMatrixFile reads a matrix from path.
func LoadMatrixFile(path string) (*Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ensemble: open %s: %w", path, err)
	}
	defer f.Close()
	return LoadMatrix(f)
}

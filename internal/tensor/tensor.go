// Package tensor provides small dense float64 tensors and the numeric
// primitives (matrix multiply, 1-D convolution lowering, reductions,
// random initialisation) required by the from-scratch DNN stack in
// internal/dnn.
//
// Tensors are row-major and deliberately minimal: shapes are validated,
// storage is a flat []float64, and all hot-path kernels operate on the
// flat slice directly. The package is pure Go and uses only the standard
// library so that the whole reproduction can run offline.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major float64 tensor.
//
// The zero value is an empty tensor with no shape. Use New, Full or
// FromSlice to build usable values.
type Tensor struct {
	shape []int
	data  []float64
}

// New returns a zero-filled tensor with the given shape.
// It panics if any dimension is negative.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: make([]float64, n)}
}

// Full returns a tensor with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); the caller must not alias it afterwards unless
// aliasing is intended. It panics if len(data) does not match the shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: data}
}

// Shape returns the tensor's shape. The returned slice must not be mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying flat storage. Mutating it mutates the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a tensor sharing t's storage with a new shape.
// It panics if the element counts differ.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), shape, n))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: t.data}
}

// Row returns a 1-D view of row i of a 2-D tensor. The view shares t's
// storage: mutating it mutates t. Useful for applying vector operations
// (softmax, variance, argmax) to one row of a batched result without
// copying.
func (t *Tensor) Row(i int) *Tensor {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: Row requires a 2-D tensor, got %v", t.shape))
	}
	if i < 0 || i >= t.shape[0] {
		panic(fmt.Sprintf("tensor: Row index %d out of range for shape %v", i, t.shape))
	}
	n := t.shape[1]
	return &Tensor{shape: []int{n}, data: t.data[i*n : (i+1)*n]}
}

// index computes the flat offset of the given multi-dimensional index.
func (t *Tensor) index(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// At returns the element at the given index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.index(idx...)] }

// Set assigns v to the element at the given index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.index(idx...)] = v }

// Fill sets every element of t to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero resets every element of t to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// CopyFrom copies src's contents into t. Shapes must have equal element
// counts (shape itself is not checked so that reshaped views interoperate).
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: CopyFrom length mismatch %d vs %d", len(t.data), len(src.data)))
	}
	copy(t.data, src.data)
}

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != u.shape[i] {
			return false
		}
	}
	return true
}

// String renders a compact description, e.g. "Tensor[6 64]".
func (t *Tensor) String() string { return fmt.Sprintf("Tensor%v", t.shape) }

// --- Elementwise operations -------------------------------------------------

// Add computes t += u elementwise. Shapes must match in element count.
func (t *Tensor) Add(u *Tensor) {
	if len(t.data) != len(u.data) {
		panic(fmt.Sprintf("tensor: Add length mismatch %v vs %v", t.shape, u.shape))
	}
	for i, v := range u.data {
		t.data[i] += v
	}
}

// --- Reductions ---------------------------------------------------------------

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Variance returns the population variance of all elements
// (0 for empty tensors). This is the confidence metric used by the
// Origin ensemble: the variance of a softmax output vector is maximal
// for a one-hot (fully confident) prediction and minimal for a uniform
// (fully confused) one.
func (t *Tensor) Variance() float64 {
	n := len(t.data)
	if n == 0 {
		return 0
	}
	m := t.Mean()
	s := 0.0
	for _, v := range t.data {
		d := v - m
		s += d * d
	}
	return s / float64(n)
}

// Max returns the maximum element. It panics on an empty tensor.
func (t *Tensor) Max() float64 {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// ArgMax returns the flat index of the maximum element, breaking ties in
// favour of the lowest index. It panics on an empty tensor.
func (t *Tensor) ArgMax() int {
	if len(t.data) == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	best, bi := t.data[0], 0
	for i, v := range t.data[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// L2Norm returns the Euclidean norm of all elements.
func (t *Tensor) L2Norm() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// AbsSum returns the L1 norm of all elements. Used by magnitude pruning.
func (t *Tensor) AbsSum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += math.Abs(v)
	}
	return s
}

// Equal reports whether t and u have the same shape and all elements are
// within tol of each other.
func (t *Tensor) Equal(u *Tensor, tol float64) bool {
	if !t.SameShape(u) {
		return false
	}
	for i := range t.data {
		if math.Abs(t.data[i]-u.data[i]) > tol {
			return false
		}
	}
	return true
}

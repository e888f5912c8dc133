package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewZeroFilled(t *testing.T) {
	x := New(3, 4)
	if x.Len() != 12 {
		t.Fatalf("Len = %d, want 12", x.Len())
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
	if x.Dims() != 2 || x.Dim(0) != 3 || x.Dim(1) != 4 {
		t.Fatalf("shape = %v, want [3 4]", x.Shape())
	}
}

func TestNewNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1, 2)
}

func TestFull(t *testing.T) {
	x := Full(2.5, 2, 2)
	for _, v := range x.Data() {
		if v != 2.5 {
			t.Fatalf("Full element = %v, want 2.5", v)
		}
	}
}

func TestFromSliceAndAtSet(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if got := x.At(1, 2); got != 6 {
		t.Fatalf("At(1,2) = %v, want 6", got)
	}
	x.Set(9, 0, 1)
	if got := x.At(0, 1); got != 9 {
		t.Fatalf("Set/At = %v, want 9", got)
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtOutOfRangePanics(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	x.At(2, 0)
}

func TestAtWrongRankPanics(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At with wrong rank did not panic")
		}
	}()
	x.At(1)
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	y := x.Clone()
	y.Set(99, 0, 0)
	if x.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
	if !x.SameShape(y) {
		t.Fatal("Clone changed shape")
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(42, 0, 0)
	if x.At(0, 0) != 42 {
		t.Fatal("Reshape did not share storage")
	}
	if y.Dim(0) != 3 || y.Dim(1) != 2 {
		t.Fatalf("Reshape shape = %v, want [3 2]", y.Shape())
	}
}

func TestReshapeBadCountPanics(t *testing.T) {
	x := New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("Reshape with wrong element count did not panic")
		}
	}()
	x.Reshape(4, 2)
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{10, 20, 30}, 3)
	a.Add(b)
	want := []float64{11, 22, 33}
	for i, v := range a.Data() {
		if v != want[i] {
			t.Fatalf("Add[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestAddShapeMismatchPanics(t *testing.T) {
	a, b := New(2), New(3)
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched lengths did not panic")
		}
	}()
	a.Add(b)
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 4)
	if got := x.Sum(); got != 10 {
		t.Fatalf("Sum = %v, want 10", got)
	}
	if got := x.Mean(); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if got := x.Variance(); !almostEqual(got, 1.25, 1e-12) {
		t.Fatalf("Variance = %v, want 1.25", got)
	}
	if got := x.Max(); got != 4 {
		t.Fatalf("Max = %v, want 4", got)
	}
	if got := x.ArgMax(); got != 3 {
		t.Fatalf("ArgMax = %v, want 3", got)
	}
	if got := x.L2Norm(); !almostEqual(got, math.Sqrt(30), 1e-12) {
		t.Fatalf("L2Norm = %v, want sqrt(30)", got)
	}
	neg := FromSlice([]float64{-1, 2, -3}, 3)
	if got := neg.AbsSum(); got != 6 {
		t.Fatalf("AbsSum = %v, want 6", got)
	}
}

func TestArgMaxTieBreaksLow(t *testing.T) {
	x := FromSlice([]float64{3, 1, 3}, 3)
	if got := x.ArgMax(); got != 0 {
		t.Fatalf("ArgMax tie = %d, want 0", got)
	}
}

func TestEmptyTensorReductions(t *testing.T) {
	x := New(0)
	if x.Mean() != 0 || x.Variance() != 0 {
		t.Fatal("empty tensor Mean/Variance should be 0")
	}
}

func TestEqual(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{1, 2.0000001}, 2)
	if !a.Equal(b, 1e-6) {
		t.Fatal("Equal within tol = false, want true")
	}
	if a.Equal(b, 1e-9) {
		t.Fatal("Equal outside tol = true, want false")
	}
	c := FromSlice([]float64{1, 2}, 1, 2)
	if a.Equal(c, 1) {
		t.Fatal("Equal with different shapes = true, want false")
	}
}

func TestMatMulKnownValues(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Fatalf("MatMul[%d] = %v, want %v", i, v, want[i])
		}
	}
}

// prop: the kernel dispatcher behind MatMul overwrites its destination
// rather than accumulating into it.
func TestMatMulIntoMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := New(4, 5), New(5, 3)
	a.RandNormal(rng, 0, 1)
	b.RandNormal(rng, 0, 1)
	want := MatMul(a, b)
	dst := Full(99, 4, 3)
	matMulInto(dst.Data(), a.Data(), b.Data(), 4, 5, 3)
	if !dst.Equal(want, 1e-12) {
		t.Fatal("matMulInto disagrees with MatMul")
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with bad inner dims did not panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestMatMulTAndMatTMulAgreeWithExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(3, 4)
	b := New(5, 4) // for MatMulT: a (3×4) × bᵀ (4×5) = (3×5)
	a.RandNormal(rng, 0, 1)
	b.RandNormal(rng, 0, 1)
	got := MatMulT(a, b)
	want := MatMul(a, transpose(b))
	if !got.Equal(want, 1e-12) {
		t.Fatal("MatMulT disagrees with explicit transpose")
	}

	c := New(4, 3) // for MatTMul: cᵀ (3×4) × d (4×5) = (3×5)
	d := New(4, 5)
	c.RandNormal(rng, 0, 1)
	d.RandNormal(rng, 0, 1)
	got2 := MatTMul(c, d)
	want2 := MatMul(transpose(c), d)
	if !got2.Equal(want2, 1e-12) {
		t.Fatal("MatTMul disagrees with explicit transpose")
	}
}

func TestMatVec(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	x := FromSlice([]float64{1, 1, 1}, 3)
	y := MatVec(a, x)
	if y.At(0) != 6 || y.At(1) != 15 {
		t.Fatalf("MatVec = %v, want [6 15]", y.Data())
	}
}

func TestIm2Col1DSingleChannel(t *testing.T) {
	// x = [0 1 2 3 4], kernel 3, stride 1 -> rows are sliding windows.
	x := FromSlice([]float64{0, 1, 2, 3, 4}, 1, 5)
	cols := Im2Col1D(x, 3, 1)
	if cols.Dim(0) != 3 || cols.Dim(1) != 3 {
		t.Fatalf("Im2Col1D shape = %v, want [3 3]", cols.Shape())
	}
	want := [][]float64{{0, 1, 2}, {1, 2, 3}, {2, 3, 4}}
	for i := range want {
		for j := range want[i] {
			if cols.At(i, j) != want[i][j] {
				t.Fatalf("cols[%d][%d] = %v, want %v", i, j, cols.At(i, j), want[i][j])
			}
		}
	}
}

func TestIm2Col1DMultiChannelStride(t *testing.T) {
	// channels=2, width=6, kernel=2, stride=2 -> outW=3, each row channel-major.
	x := FromSlice([]float64{
		0, 1, 2, 3, 4, 5, // channel 0
		10, 11, 12, 13, 14, 15, // channel 1
	}, 2, 6)
	cols := Im2Col1D(x, 2, 2)
	if cols.Dim(0) != 3 || cols.Dim(1) != 4 {
		t.Fatalf("shape = %v, want [3 4]", cols.Shape())
	}
	want := [][]float64{
		{0, 1, 10, 11},
		{2, 3, 12, 13},
		{4, 5, 14, 15},
	}
	for i := range want {
		for j := range want[i] {
			if cols.At(i, j) != want[i][j] {
				t.Fatalf("cols[%d][%d] = %v, want %v", i, j, cols.At(i, j), want[i][j])
			}
		}
	}
}

func TestCol2ImAccumulatesOverlaps(t *testing.T) {
	// kernel 3 stride 1 on width 5: middle positions overlap.
	cols := Full(1, 3, 3) // outW=3, ch*k=3
	x := Col2Im1D(cols, 1, 5, 3, 1)
	want := []float64{1, 2, 3, 2, 1}
	for i, v := range x.Data() {
		if v != want[i] {
			t.Fatalf("Col2Im[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestSoftmaxProperties(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3}, 3)
	s := Softmax(x)
	if !almostEqual(s.Sum(), 1, 1e-12) {
		t.Fatalf("softmax sum = %v, want 1", s.Sum())
	}
	if s.ArgMax() != 2 {
		t.Fatalf("softmax argmax = %d, want 2", s.ArgMax())
	}
	// Large logits must not overflow.
	big := FromSlice([]float64{1000, 1001, 1002}, 3)
	sb := Softmax(big)
	if math.IsNaN(sb.Sum()) || !almostEqual(sb.Sum(), 1, 1e-9) {
		t.Fatalf("softmax of large logits sum = %v", sb.Sum())
	}
}

func TestSoftmaxVarianceOrdersConfidence(t *testing.T) {
	confident := FromSlice([]float64{0.94, 0.01, 0.02, 0.03}, 4)
	confused := FromSlice([]float64{0.25, 0.25, 0.25, 0.25}, 4)
	if confident.Variance() <= confused.Variance() {
		t.Fatal("variance of confident vector should exceed variance of uniform vector")
	}
	if confused.Variance() != 0 {
		t.Fatalf("uniform vector variance = %v, want 0", confused.Variance())
	}
}

func TestInitialisers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := New(1000)
	x.HeNormal(rng, 50)
	std := math.Sqrt(x.Variance())
	wantStd := math.Sqrt(2.0 / 50.0)
	if math.Abs(std-wantStd) > 0.05 {
		t.Fatalf("HeNormal std = %v, want ≈ %v", std, wantStd)
	}
	x.GlorotUniform(rng, 10, 10)
	limit := math.Sqrt(6.0 / 20.0)
	for _, v := range x.Data() {
		if v < -limit || v >= limit {
			t.Fatalf("GlorotUniform sample %v outside ±%v", v, limit)
		}
	}
}

// --- Property-based tests ----------------------------------------------------

// prop: softmax output is a probability distribution for any finite input.
func TestSoftmaxIsDistributionQuick(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				vals[i] = 0
			}
			// Clamp to a sane logit range; quick generates huge magnitudes.
			if vals[i] > 700 {
				vals[i] = 700
			}
			if vals[i] < -700 {
				vals[i] = -700
			}
		}
		s := Softmax(FromSlice(vals, len(vals)))
		sum := 0.0
		for _, v := range s.Data() {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return almostEqual(sum, 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// prop: matrix multiplication distributes over addition: A(B+C) = AB + AC.
func TestMatMulDistributesQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a, b, c := New(m, k), New(k, n), New(k, n)
		a.RandNormal(rng, 0, 1)
		b.RandNormal(rng, 0, 1)
		c.RandNormal(rng, 0, 1)
		bc := b.Clone()
		bc.Add(c)
		left := MatMul(a, bc)
		right := MatMul(a, b)
		right.Add(MatMul(a, c))
		return left.Equal(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// prop: Col2Im1D is the adjoint of Im2Col1D: <im2col(x), y> == <x, col2im(y)>.
func TestIm2ColAdjointQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ch := 1 + r.Intn(3)
		k := 1 + r.Intn(4)
		w := k + r.Intn(10)
		s := 1 + r.Intn(3)
		x := New(ch, w)
		x.RandNormal(r, 0, 1)
		cols := Im2Col1D(x, k, s)
		y := New(cols.Dim(0), cols.Dim(1))
		y.RandNormal(r, 0, 1)
		// <im2col(x), y>
		lhs := 0.0
		for i, v := range cols.Data() {
			lhs += v * y.Data()[i]
		}
		// <x, col2im(y)>
		back := Col2Im1D(y, ch, w, k, s)
		rhs := 0.0
		for i, v := range x.Data() {
			rhs += v * back.Data()[i]
		}
		return almostEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// prop: variance is invariant under permutation and shifts by a constant
// leave it unchanged.
func TestVarianceShiftInvariantQuick(t *testing.T) {
	f := func(seed int64, shift float64) bool {
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e6 {
			shift = 1
		}
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		x := New(n)
		x.RandNormal(r, 0, 1)
		v1 := x.Variance()
		y := x.Clone()
		for i := range y.Data() {
			y.Data()[i] += shift
		}
		v2 := y.Variance()
		return almostEqual(v1, v2, 1e-6*(1+math.Abs(shift)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := New(64, 64), New(64, 64)
	x.RandNormal(rng, 0, 1)
	y.RandNormal(rng, 0, 1)
	dst := New(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matMulInto(dst.Data(), x.Data(), y.Data(), 64, 64, 64)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := New(6, 64)
	x.RandNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Im2Col1D(x, 5, 1)
	}
}

// transpose is the naive reference the MatMulT/MatTMul layouts are checked
// against.
func transpose(t *Tensor) *Tensor {
	m, n := t.Dim(0), t.Dim(1)
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Set(t.At(i, j), j, i)
		}
	}
	return out
}

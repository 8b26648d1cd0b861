// Package tensor implements the dense linear-algebra kernels used by the MoE
// transformer forward pass: float32 matrices, blocked (optionally parallel)
// matrix multiplication, and the activation/normalization functions a GPT
// block needs.
//
// The package exists so that the inference engine performs *real* attention
// and expert-FFN computation on the CPU, which is what lets the tests show
// that every expert-parallel mode generates identical tokens. No simulated
// time depends on it: moe.CostModel charges the clock for attention, expert
// FFNs and gating from shapes alone, so the compute-versus-Alltoall split
// of the paper's Fig 9 comes out the same with or without the math.
package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Matrix is a dense, row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float32) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("tensor: ragged rows")
		}
		copy(m.Row(i), r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Equal reports whether two matrices have identical shape and elements within
// tolerance eps.
func (m *Matrix) Equal(o *Matrix, eps float32) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i := range m.Data {
		d := m.Data[i] - o.Data[i]
		if d < -eps || d > eps {
			return false
		}
	}
	return true
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// matMulSerialInto computes dst = a*b without spawning goroutines, using an
// ikj loop order that keeps the inner loop streaming over contiguous rows.
func matMulSerialInto(dst, a, b *Matrix, rowStart, rowEnd int) {
	n := b.Cols
	for i := rowStart; i < rowEnd; i++ {
		dRow := dst.Row(i)
		for j := range dRow {
			dRow[j] = 0
		}
		aRow := a.Row(i)
		for k, av := range aRow {
			if av == 0 {
				continue
			}
			bRow := b.Data[k*n : k*n+n]
			for j, bv := range bRow {
				dRow[j] += av * bv
			}
		}
	}
}

// parallelThreshold is the minimum number of scalar multiply-adds before
// MatMul fans out to multiple goroutines; below it the spawn overhead
// dominates.
const parallelThreshold = 1 << 16

// MatMul returns a * b. It panics on a shape mismatch. Large products are
// split across GOMAXPROCS goroutines by row blocks.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst := NewMatrix(a.Rows, b.Cols)
	work := a.Rows * a.Cols * b.Cols
	workers := runtime.GOMAXPROCS(0)
	if work < parallelThreshold || workers <= 1 || a.Rows == 1 {
		matMulSerialInto(dst, a, b, 0, a.Rows)
		return dst
	}
	if workers > a.Rows {
		workers = a.Rows
	}
	var wg sync.WaitGroup
	chunk := (a.Rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		start := w * chunk
		end := start + chunk
		if end > a.Rows {
			end = a.Rows
		}
		if start >= end {
			break
		}
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			matMulSerialInto(dst, a, b, s, e)
		}(start, end)
	}
	wg.Wait()
	return dst
}

// MatVec returns a * x where x is treated as a column vector.
func MatVec(a *Matrix, x []float32) []float32 {
	if a.Cols != len(x) {
		panic(fmt.Sprintf("tensor: matvec shape mismatch %dx%d * %d", a.Rows, a.Cols, len(x)))
	}
	y := make([]float32, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		var sum float32
		for j, v := range row {
			sum += v * x[j]
		}
		y[i] = sum
	}
	return y
}

// VecMat returns x^T * a, i.e. a row vector times a matrix. This is the hot
// path for single-token decode (1 x d times d x f).
func VecMat(x []float32, a *Matrix) []float32 {
	if len(x) != a.Rows {
		panic(fmt.Sprintf("tensor: vecmat shape mismatch %d * %dx%d", len(x), a.Rows, a.Cols))
	}
	y := make([]float32, a.Cols)
	for k, xv := range x {
		if xv == 0 {
			continue
		}
		row := a.Row(k)
		for j, av := range row {
			y[j] += xv * av
		}
	}
	return y
}

// AddBias adds bias (length Cols) to every row of m in place and returns m.
func (m *Matrix) AddBias(bias []float32) *Matrix {
	if len(bias) != m.Cols {
		panic("tensor: bias length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += bias[j]
		}
	}
	return m
}

// AddInto computes dst = a + b element-wise; shapes must match.
func AddInto(dst, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic("tensor: add shape mismatch")
	}
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// AddVec adds b into a element-wise in place.
func AddVec(a, b []float32) {
	if len(a) != len(b) {
		panic("tensor: addvec length mismatch")
	}
	for i := range a {
		a[i] += b[i]
	}
}

// Dot returns the inner product of a and b.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("tensor: dot length mismatch")
	}
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Scale multiplies every element of v by c in place.
func Scale(v []float32, c float32) {
	for i := range v {
		v[i] *= c
	}
}

// L2Norm returns the Euclidean norm of v.
func L2Norm(v []float32) float64 {
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	return math.Sqrt(s)
}

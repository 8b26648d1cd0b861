package tensor

import "math"

// GELU applies the Gaussian Error Linear Unit activation (tanh approximation,
// the variant used by GPT-style models) to v in place.
func GELU(v []float32) {
	const c = 0.7978845608028654 // sqrt(2/pi)
	for i, x := range v {
		xf := float64(x)
		v[i] = float32(0.5 * xf * (1 + math.Tanh(c*(xf+0.044715*xf*xf*xf))))
	}
}

// Softmax normalizes v into a probability distribution in place using the
// numerically stable max-shift formulation.
func Softmax(v []float32) {
	if len(v) == 0 {
		return
	}
	maxV := v[0]
	for _, x := range v[1:] {
		if x > maxV {
			maxV = x
		}
	}
	var sum float64
	for i, x := range v {
		e := math.Exp(float64(x - maxV))
		v[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range v {
		v[i] *= inv
	}
}

// SoftmaxRows applies Softmax to each row of m in place and returns m.
func SoftmaxRows(m *Matrix) *Matrix {
	for i := 0; i < m.Rows; i++ {
		Softmax(m.Row(i))
	}
	return m
}

// LayerNorm normalizes v in place to zero mean and unit variance, then
// applies the learned gain and bias. gain and bias may be nil for identity.
func LayerNorm(v []float32, gain, bias []float32) {
	n := len(v)
	if n == 0 {
		return
	}
	var mean float64
	for _, x := range v {
		mean += float64(x)
	}
	mean /= float64(n)
	var variance float64
	for _, x := range v {
		d := float64(x) - mean
		variance += d * d
	}
	variance /= float64(n)
	inv := 1 / math.Sqrt(variance+1e-5)
	for i, x := range v {
		nx := (float64(x) - mean) * inv
		if gain != nil {
			nx *= float64(gain[i])
		}
		if bias != nil {
			nx += float64(bias[i])
		}
		v[i] = float32(nx)
	}
}

// ArgMax returns the index of the largest element of v (first on ties).
// It panics on an empty slice.
func ArgMax(v []float32) int {
	if len(v) == 0 {
		panic("tensor: ArgMax of empty slice")
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// TopK returns the indices of the k largest elements of v in descending
// value order. It panics if k exceeds len(v) or k <= 0.
func TopK(v []float32, k int) []int {
	if k <= 0 || k > len(v) {
		panic("tensor: TopK with invalid k")
	}
	idx := make([]int, 0, k)
	for i := 0; i < k; i++ {
		best := -1
		for j := range v {
			taken := false
			for _, t := range idx {
				if t == j {
					taken = true
					break
				}
			}
			if taken {
				continue
			}
			if best == -1 || v[j] > v[best] {
				best = j
			}
		}
		idx = append(idx, best)
	}
	return idx
}

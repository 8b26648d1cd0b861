package workload

import (
	"fmt"
	"math"
)

// LocalityModel is the serving cost of one decode iteration as a function of
// the active batch and of the quantity the whole ExFlow pipeline optimizes:
// where token dispatches land. One decode iteration of an active batch of n
// tokens whose dispatches stay on the current GPU with probability
// (1 - fracNode - fracCross) is modeled as
//
//	time(n, fracNode, fracCross) =
//	    Fixed + n*(PerToken + PerNodeHop*fracNode + PerCrossHop*fracCross)
//
// so a placement that lowers the cross-node dispatch fraction shortens every
// iteration and raises the service rate of the continuous-batching queue.
// The coefficients are fit from real engine runs (FitLocalityModel, or
// FitIterationModel for the batch-only terms), which is how internal/serve
// turns live routing statistics into latency without re-running the engine
// inside its discrete-event loop.
type LocalityModel struct {
	// Fixed is the per-iteration cost independent of batch size (kernel
	// launches, collective latency terms).
	Fixed float64
	// PerToken is the per-token compute cost (attention, gating, expert FFN).
	PerToken float64
	// PerNodeHop is the extra per-token cost when the dispatch crosses GPUs
	// within a node (NVLink).
	PerNodeHop float64
	// PerCrossHop is the extra per-token cost when the dispatch crosses the
	// inter-node fabric (IB).
	PerCrossHop float64
}

// Time returns the modeled iteration seconds for an active batch of n with
// the given dispatch-locality fractions.
func (m LocalityModel) Time(n int, fracNode, fracCross float64) float64 {
	if n <= 0 {
		return 0
	}
	return m.Fixed + float64(n)*(m.PerToken+m.PerNodeHop*fracNode+m.PerCrossHop*fracCross)
}

// LocalityPoint is one engine measurement: an iteration of Batch active
// tokens whose dispatches crossed GPUs within a node with frequency FracNode
// and crossed nodes with frequency FracCross took Seconds.
type LocalityPoint struct {
	Batch               int
	FracNode, FracCross float64
	Seconds             float64
}

// FitLocalityModel least-squares fits the four coefficients through the
// measurement points. At least four points are required, and they must span
// more than one batch size and more than one locality profile or the system
// is singular. Negative coefficients (possible under measurement noise) are
// clamped to zero, mirroring FitIterationModel.
func FitLocalityModel(points []LocalityPoint) (LocalityModel, error) {
	if len(points) < 4 {
		return LocalityModel{}, fmt.Errorf("workload: need >= 4 measurement points, got %d", len(points))
	}
	for _, p := range points {
		if p.Batch <= 0 || p.Seconds <= 0 {
			return LocalityModel{}, fmt.Errorf("workload: non-positive measurement %+v", p)
		}
	}
	// Normal equations A^T A x = A^T y for rows [1, n, n*fN, n*fC] with a
	// tiny ridge term keeping near-degenerate point sets solvable.
	var ata [4][4]float64
	var aty [4]float64
	for _, p := range points {
		n := float64(p.Batch)
		row := [4]float64{1, n, n * p.FracNode, n * p.FracCross}
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				ata[i][j] += row[i] * row[j]
			}
			aty[i] += row[i] * p.Seconds
		}
	}
	scale := 0.0
	for i := 0; i < 4; i++ {
		scale += ata[i][i]
	}
	ridge := 1e-12 * scale / 4
	for i := 0; i < 4; i++ {
		ata[i][i] += ridge
	}
	x, err := solve4(ata, aty)
	if err != nil {
		return LocalityModel{}, err
	}
	m := LocalityModel{Fixed: x[0], PerToken: x[1], PerNodeHop: x[2], PerCrossHop: x[3]}
	if m.Fixed < 0 {
		m.Fixed = 0
	}
	if m.PerToken < 0 {
		m.PerToken = 0
	}
	if m.PerNodeHop < 0 {
		m.PerNodeHop = 0
	}
	if m.PerCrossHop < 0 {
		m.PerCrossHop = 0
	}
	if m.Fixed == 0 && m.PerToken == 0 && m.PerNodeHop == 0 && m.PerCrossHop == 0 {
		return LocalityModel{}, fmt.Errorf("workload: degenerate locality fit (all coefficients clamped)")
	}
	return m, nil
}

// solve4 solves a 4x4 linear system by Gaussian elimination with partial
// pivoting.
func solve4(a [4][4]float64, b [4]float64) ([4]float64, error) {
	for col := 0; col < 4; col++ {
		pivot := col
		for r := col + 1; r < 4; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-300 {
			return [4]float64{}, fmt.Errorf("workload: singular locality fit system")
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		for r := col + 1; r < 4; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < 4; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	var x [4]float64
	for r := 3; r >= 0; r-- {
		x[r] = b[r]
		for c := r + 1; c < 4; c++ {
			x[r] -= a[r][c] * x[c]
		}
		x[r] /= a[r][r]
	}
	return x, nil
}

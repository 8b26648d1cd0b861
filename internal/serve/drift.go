package serve

import (
	"fmt"
	"math"
)

// DriftMetric selects the divergence the detector computes between the
// baseline and live routing transition distributions. JS is the only one.
type DriftMetric int

// JS is the Jensen-Shannon divergence (nats, bounded by ln 2) between
// row-conditional transition distributions, mass-weighted across rows.
const JS DriftMetric = 0

// String implements fmt.Stringer.
func (m DriftMetric) String() string {
	if m == JS {
		return "js"
	}
	return fmt.Sprintf("DriftMetric(%d)", int(m))
}

// rowDivergence computes the JS divergence between two unnormalized count
// rows. Rows are normalized internally; an empty base row is treated as
// uniform (no evidence = no preference).
func rowDivergence(base, live []float64) float64 {
	bSum, lSum := 0.0, 0.0
	for i := range base {
		bSum += base[i]
		lSum += live[i]
	}
	if lSum == 0 {
		return 0
	}
	n := float64(len(base))
	d := 0.0
	for i := range base {
		pi := 1 / n // baseline
		if bSum != 0 {
			pi = base[i] / bSum
		}
		qi := live[i] / lSum
		m := (pi + qi) / 2
		if pi > 0 {
			d += 0.5 * pi * math.Log(pi/m)
		}
		if qi > 0 {
			d += 0.5 * qi * math.Log(qi/m)
		}
	}
	return d
}

// Divergence compares two transition-count matrices row by row, weighting
// each row's divergence by its live mass (rows the current traffic never
// visits cannot cause drift). Both matrices must be E x E.
func Divergence(metric DriftMetric, base, live [][]float64) float64 {
	total := 0.0
	for _, row := range live {
		for _, v := range row {
			total += v
		}
	}
	if total == 0 {
		return 0
	}
	d := 0.0
	for from := range live {
		mass := 0.0
		for _, v := range live[from] {
			mass += v
		}
		if mass == 0 {
			continue
		}
		d += mass / total * rowDivergence(base[from], live[from])
	}
	return d
}

// Detector watches the live routing window for drift away from a baseline
// transition distribution. Observe returns the current score and whether the
// detector has fired: the score must exceed Threshold for Patience
// consecutive observations, debouncing transient bursts.
type Detector struct {
	// Metric is the divergence (JS).
	Metric DriftMetric
	// Threshold is the divergence above which an observation counts as hot.
	Threshold float64
	// Patience is the number of consecutive hot observations required to
	// fire (minimum 1).
	Patience int

	baseline [][]float64
	hot      int
}

// NewDetector builds a detector against a pooled baseline transition matrix
// (see TraceWindow.Pooled / Pool).
func NewDetector(metric DriftMetric, threshold float64, patience int, baseline [][]float64) *Detector {
	if threshold <= 0 {
		panic("serve: detector threshold must be positive")
	}
	if patience < 1 {
		patience = 1
	}
	return &Detector{Metric: metric, Threshold: threshold, Patience: patience, baseline: baseline}
}

// Observe scores the live pooled counts against the baseline.
func (d *Detector) Observe(live [][]float64) (score float64, fired bool) {
	score = Divergence(d.Metric, d.baseline, live)
	if score > d.Threshold {
		d.hot++
	} else {
		d.hot = 0
	}
	return score, d.hot >= d.Patience
}

// Rebase replaces the baseline (after a re-placement adopts the live
// distribution as the new normal) and clears the hot streak.
func (d *Detector) Rebase(baseline [][]float64) {
	d.baseline = baseline
	d.hot = 0
}

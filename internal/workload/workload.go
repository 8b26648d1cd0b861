// Package workload holds the serving cost models: what one decode iteration
// of a continuous-batching server costs, fit from inference-engine
// measurements. LocalityModel prices an iteration by its active batch and
// its dispatch locality; FitLocalityModel fits it by least squares and
// FitIterationModel fits its batch-only part through two points.
// internal/serve runs the discrete-event simulation that turns these costs
// into request latency.
package workload

import "fmt"

// FitIterationModel fits the linear cost time(n) = Fixed + PerToken * n
// through two measurements (batch size, per-iteration seconds) and returns
// it as a LocalityModel with zero hop terms: the measured runs already price
// their dispatches. The batch sizes must differ and the measured times must
// be positive — a zero measurement would fit a model under which iterations
// are free and every queue is infinitely fast.
func FitIterationModel(n1 int, t1 float64, n2 int, t2 float64) (LocalityModel, error) {
	if n1 == n2 {
		return LocalityModel{}, fmt.Errorf("workload: need two distinct batch sizes")
	}
	if t1 <= 0 || t2 <= 0 {
		return LocalityModel{}, fmt.Errorf("workload: non-positive iteration measurement (t1=%v t2=%v)", t1, t2)
	}
	per := (t2 - t1) / float64(n2-n1)
	fixed := t1 - per*float64(n1)
	if per < 0 || fixed < 0 {
		// Measurement noise can produce a slightly negative component;
		// clamp rather than reject, but never both.
		if per < 0 && fixed < 0 {
			return LocalityModel{}, fmt.Errorf("workload: degenerate fit (fixed=%v per=%v)", fixed, per)
		}
		if per < 0 {
			per = 0
			fixed = (t1 + t2) / 2
		} else {
			fixed = 0
			per = (t1 + t2) / float64(n1+n2)
		}
	}
	return LocalityModel{Fixed: fixed, PerToken: per}, nil
}

package serve

import (
	"math"

	"repro/internal/rng"
)

const (
	burstFactor  = 3.0 // on-period rate multiple
	burstOnMean  = 1.0 // mean on-period seconds
	diurnalSwing = 0.5 // peak-to-mean amplitude of the diurnal sinusoid
)

// generateArrivals returns the deterministic, sorted arrival times of one
// phase, offset by start.
func generateArrivals(r *rng.RNG, p Phase, start float64) []float64 {
	var out []float64
	switch p.Arrival {
	case Bursty:
		// On/off modulation: arrivals only during on-periods, at
		// burstFactor*Rate; duty cycle 1/burstFactor preserves the mean rate.
		offMean := burstOnMean * (burstFactor - 1)
		t, on := 0.0, true
		edge := r.Exponential() * burstOnMean
		for t < p.Duration {
			if on {
				gap := r.Exponential() / (burstFactor * p.Rate)
				if t+gap < edge {
					t += gap
					if t < p.Duration {
						out = append(out, start+t)
					}
					continue
				}
			}
			t = edge
			on = !on
			if on {
				edge = t + r.Exponential()*burstOnMean
			} else {
				edge = t + r.Exponential()*offMean
			}
		}
	case Diurnal:
		// Thinning against the envelope rate (1+swing)*Rate.
		envelope := (1 + diurnalSwing) * p.Rate
		t := 0.0
		for {
			t += r.Exponential() / envelope
			if t >= p.Duration {
				break
			}
			rate := p.Rate * (1 + diurnalSwing*math.Sin(2*math.Pi*t/p.Duration))
			if r.Float64() < rate/envelope {
				out = append(out, start+t)
			}
		}
	default: // Poisson
		t := 0.0
		for {
			t += r.Exponential() / p.Rate
			if t >= p.Duration {
				break
			}
			out = append(out, start+t)
		}
	}
	return out
}

package serve

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/synth"
)

// ArrivalKind selects the request arrival process of a traffic phase.
type ArrivalKind int

const (
	// Poisson arrivals: exponential inter-arrival gaps at the phase rate.
	Poisson ArrivalKind = iota
	// Bursty arrivals: a Markov-modulated on/off process. The long-run rate
	// equals the phase rate, but arrivals cluster in bursts at burstFactor
	// times that rate, stressing the queue's tail.
	Bursty
	// Diurnal arrivals: a sinusoidally modulated Poisson process (one full
	// cycle per phase), modeling daily traffic swing.
	Diurnal
)

// String implements fmt.Stringer.
func (k ArrivalKind) String() string {
	switch k {
	case Poisson:
		return "poisson"
	case Bursty:
		return "bursty"
	case Diurnal:
		return "diurnal"
	default:
		return fmt.Sprintf("ArrivalKind(%d)", int(k))
	}
}

// ParseArrivalKind maps a CLI string to an ArrivalKind.
func ParseArrivalKind(s string) (ArrivalKind, error) {
	switch s {
	case "", "poisson":
		return Poisson, nil
	case "bursty":
		return Bursty, nil
	case "diurnal":
		return Diurnal, nil
	default:
		return Poisson, fmt.Errorf("serve: unknown arrival kind %q", s)
	}
}

// Phase is one era of offered traffic: requests arrive for Duration seconds
// at mean Rate requests/second under the given process, drawing their token
// content from Dataset.
type Phase struct {
	Name     string
	Duration float64
	Rate     float64
	Kind     ArrivalKind
	Dataset  *synth.DatasetProfile
}

// validate checks one phase.
func (p Phase) validate() error {
	// NaN passes every ordered comparison and +Inf never ends the arrival
	// loop, so both are rejected explicitly.
	if !(p.Duration > 0) || math.IsInf(p.Duration, 1) || !(p.Rate > 0) || math.IsInf(p.Rate, 1) {
		return fmt.Errorf("serve: phase %q needs positive finite duration and rate, got %v and %v", p.Name, p.Duration, p.Rate)
	}
	if p.Dataset == nil {
		return fmt.Errorf("serve: phase %q has no dataset", p.Name)
	}
	return p.Dataset.Validate()
}

const (
	burstFactor  = 3.0 // on-period rate multiple
	burstOnMean  = 1.0 // mean on-period seconds
	diurnalSwing = 0.5 // peak-to-mean amplitude of the diurnal sinusoid
)

// generateArrivals returns the deterministic, sorted arrival times of one
// phase, offset by start.
func generateArrivals(r *rng.RNG, p Phase, start float64) []float64 {
	var out []float64
	switch p.Kind {
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

package sim

import (
	"math"
	"math/rand"
)

// Distributions used throughout the simulation. They take the *rand.Rand
// explicitly so callers draw from the kernel's deterministic source.

// Exp draws an exponentially distributed duration with the given mean.
func Exp(rng *rand.Rand, mean Time) Time {
	if mean <= 0 {
		return 0
	}
	return Time(rng.ExpFloat64() * float64(mean))
}

// NormalSigned draws a normally distributed duration that may be negative
// (e.g. a clock offset).
func NormalSigned(rng *rand.Rand, mean, stddev Time) Time {
	return Time(float64(mean) + rng.NormFloat64()*float64(stddev))
}

// LogNormal draws a log-normally distributed duration whose underlying
// normal has the given mu and sigma (of log-nanoseconds). Used for
// heavy-tailed latencies such as ssh dispatch under load.
func LogNormal(rng *rand.Rand, median Time, sigma float64) Time {
	if median <= 0 {
		return 0
	}
	// median of lognormal = exp(mu)
	x := rng.NormFloat64() * sigma
	return Time(float64(median) * math.Exp(x))
}

// Uniform draws uniformly from [lo, hi).
func Uniform(rng *rand.Rand, lo, hi Time) Time {
	if hi <= lo {
		return lo
	}
	return lo + Time(rng.Int63n(int64(hi-lo)))
}

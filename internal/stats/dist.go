package stats

import "math"

// Zipf samples from a Zipf-Mandelbrot distribution over {0, 1, ..., n-1}
// with exponent s > 1 and offset v >= 1, using the rejection method of
// Hörmann & Derflinger (the same algorithm as math/rand.Zipf, reimplemented
// here against our deterministic RNG).
type Zipf struct {
	rng          *RNG
	imax         float64
	v            float64
	q            float64
	oneminusQ    float64
	oneminusQinv float64
	hxm          float64
	hx0minusHxm  float64
	s            float64
}

// NewZipf returns a Zipf sampler. It panics if s <= 1, v < 1, or n == 0.
func NewZipf(rng *RNG, s, v float64, n uint64) *Zipf {
	if s <= 1.0 || v < 1 || n == 0 {
		panic("stats: invalid Zipf parameters")
	}
	z := &Zipf{rng: rng, imax: float64(n - 1), v: v, q: s}
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))
	return z
}

// RNG exposes the sampler's generator so checkpointing can capture and
// restore its stream position; the other fields are pure functions of the
// NewZipf parameters.
func (z *Zipf) RNG() *RNG { return z.rng }

func (z *Zipf) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *Zipf) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// Uint64 draws the next Zipf deviate.
func (z *Zipf) Uint64() uint64 {
	for {
		r := z.rng.Float64()
		ur := z.hxm + r*z.hx0minusHxm
		x := z.hinv(ur)
		k := math.Floor(x + 0.5)
		if k-x <= z.s {
			return uint64(k)
		}
		if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
			return uint64(k)
		}
	}
}

// LogNormal samples exp(N(mu, sigma)). Heavy-tailed; used for advertiser
// budgets, bid levels, and per-advertiser traffic scale.
type LogNormal struct {
	rng   *RNG
	Mu    float64
	Sigma float64
}

// NewLogNormal returns a lognormal sampler.
func NewLogNormal(rng *RNG, mu, sigma float64) *LogNormal {
	return &LogNormal{rng: rng, Mu: mu, Sigma: sigma}
}

// RNG exposes the sampler's generator for checkpointing.
func (l *LogNormal) RNG() *RNG { return l.rng }

// Sample draws the next lognormal deviate.
func (l *LogNormal) Sample() float64 {
	return math.Exp(l.Mu + l.Sigma*l.rng.NormFloat64())
}

// Exponential samples an exponential deviate with the given mean.
func Exponential(rng *RNG, mean float64) float64 {
	return mean * rng.ExpFloat64()
}

// Poisson samples a Poisson(lambda) deviate. Knuth's method is used for
// small lambda and a normal approximation (rounded, clamped at zero) for
// large lambda, which is accurate enough for arrival counts at scale.
func Poisson(rng *RNG, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= rng.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	n := lambda + math.Sqrt(lambda)*rng.NormFloat64()
	if n < 0 {
		return 0
	}
	return int(n + 0.5)
}

// Geometric samples the number of failures before the first success for a
// Bernoulli(p) process. Returns 0 immediately when p >= 1.
func Geometric(rng *RNG, p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("stats: Geometric with non-positive p")
	}
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return int(math.Log(u) / math.Log(1-p))
}

// Categorical draws an index in [0, len(weights)) with probability
// proportional to weights[i]. It panics if all weights are zero or any is
// negative.
func Categorical(rng *RNG, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("stats: negative categorical weight")
		}
		total += w
	}
	if total <= 0 {
		panic("stats: categorical weights sum to zero")
	}
	x := rng.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

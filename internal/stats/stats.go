// Package stats provides the descriptive statistics the m3 evaluation relies
// on: percentiles, percentile vectors (the 1..100% grid used by feature maps
// and model outputs), empirical CDFs, and relative-error metrics.
package stats

import (
	"math"
	"sort"
)

// Percentile returns the p-th percentile (p in (0, 100]) of xs using linear
// interpolation between order statistics. It returns NaN for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := lo + 1
	frac := rank - float64(lo)
	if hi >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// PercentileGrid is the fixed 1%..100% grid (100 points, 1% steps) m3 uses
// for both feature maps and model outputs.
var PercentileGrid = func() []float64 {
	g := make([]float64, 100)
	for i := range g {
		g[i] = float64(i + 1)
	}
	return g
}()

// Percentiles returns the values of xs at each percentile in ps. Sorting is
// done once. Empty input yields a vector of NaN.
func Percentiles(xs []float64, ps []float64) []float64 {
	out := make([]float64, len(ps))
	PercentilesInto(xs, ps, out, nil)
	return out
}

// PercentilesInto writes the values of xs at each percentile in ps into dst
// (which must have len(ps)), sorting into buf instead of a fresh copy. It
// returns buf, grown if needed, so callers can reuse it across calls (the
// feature builder runs this once per size bucket per path). Empty xs fills
// dst with NaN.
func PercentilesInto(xs, ps, dst, buf []float64) []float64 {
	if len(xs) == 0 {
		for i := range dst {
			dst[i] = math.NaN()
		}
		return buf
	}
	buf = append(buf[:0], xs...)
	sort.Float64s(buf)
	for i, p := range ps {
		dst[i] = percentileSorted(buf, p)
	}
	return buf
}

// PercentileVector returns the standard 100-point percentile vector of xs.
func PercentileVector(xs []float64) []float64 {
	return Percentiles(xs, PercentileGrid)
}

// P99 is shorthand for the 99th percentile.
func P99(xs []float64) float64 { return Percentile(xs, 99) }

// Mean returns the arithmetic mean, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Max returns the maximum, or NaN for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum, or NaN for empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// RelError is the paper's Eq. (4): (estimate - truth) / truth, signed.
func RelError(estimate, truth float64) float64 {
	if truth == 0 {
		return math.NaN()
	}
	return (estimate - truth) / truth
}

// AbsRelError is |RelError| — what the paper reports for means and medians.
func AbsRelError(estimate, truth float64) float64 {
	return math.Abs(RelError(estimate, truth))
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF over xs.
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-quantile for q in [0, 1].
func (c *CDF) Quantile(q float64) float64 { return SortedQuantile(c.sorted, q) }

// SortedQuantile is CDF.Quantile over xs, which must already be sorted
// ascending: no copy, no sort. It returns NaN for empty input.
func SortedQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return percentileSorted(xs, q*100)
}

// Len reports the number of samples.
func (c *CDF) Len() int { return len(c.sorted) }

// Values returns the sorted samples (not a copy; callers must not modify).
func (c *CDF) Values() []float64 { return c.sorted }

// Histogram2D is a size-bucket × percentile heat map, the shape of the
// flowSim feature maps and of Figure 3.
type Histogram2D struct {
	Rows, Cols int
	Data       []float64 // row-major
}

// NewHistogram2D allocates a rows × cols map.
func NewHistogram2D(rows, cols int) *Histogram2D {
	return &Histogram2D{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the (r, c) cell.
func (h *Histogram2D) At(r, c int) float64 { return h.Data[r*h.Cols+c] }

// Set assigns the (r, c) cell.
func (h *Histogram2D) Set(r, c int, v float64) { h.Data[r*h.Cols+c] = v }

// Row returns row r as a slice into the map.
func (h *Histogram2D) Row(r int) []float64 { return h.Data[r*h.Cols : (r+1)*h.Cols] }

// Summary holds the five-number-ish summary used by the boxplot figures.
type Summary struct {
	Mean, Median, P25, P75, P99, Min, Max float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		nan := math.NaN()
		return Summary{nan, nan, nan, nan, nan, nan, nan}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Summary{
		Mean:   Mean(xs),
		Median: percentileSorted(sorted, 50),
		P25:    percentileSorted(sorted, 25),
		P75:    percentileSorted(sorted, 75),
		P99:    percentileSorted(sorted, 99),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
	}
}

// Package feature converts flowSim outputs into the m3 model's inputs
// (§3.4): per-size-bucket slowdown percentile maps for foreground and
// per-link background traffic, and the normalized network-specification
// vector (Table 4) appended to the MLP input.
package feature

import (
	"math"
	"sync"

	"m3/internal/packetsim"
	"m3/internal/stats"
	"m3/internal/unit"
)

// NumPercentiles is the fixed percentile grid size (1%..100%).
const NumPercentiles = 100

// FeatureBucketBounds are the upper bounds of the 10 feature size buckets:
// (0,250], (250,500], ..., (50KB, inf). The paper: "10 flow size buckets,
// ranging from flows with a single packet under 250B to flows exceeding
// 50KB".
var FeatureBucketBounds = []unit.ByteSize{250, 500, 1000, 2000, 5000, 10000, 20000, 30000, 50000}

// OutputBucketBounds are the upper bounds of the 4 output buckets:
// (0,1KB], (1KB,10KB], (10KB,50KB], (50KB,inf) (§3.4).
var OutputBucketBounds = []unit.ByteSize{1000, 10000, 50000}

// NumFeatureBuckets is len(FeatureBucketBounds)+1 = 10.
const NumFeatureBuckets = 10

// NumOutputBuckets is len(OutputBucketBounds)+1 = 4.
const NumOutputBuckets = 4

// FeatureDim is the flattened size of one feature map.
const FeatureDim = NumFeatureBuckets * NumPercentiles

// OutputDim is the flattened size of the model output.
const OutputDim = NumOutputBuckets * NumPercentiles

// BucketOf returns the bucket index of size for the given bounds
// (len(bounds)+1 buckets).
func BucketOf(size unit.ByteSize, bounds []unit.ByteSize) int {
	for i, b := range bounds {
		if size <= b {
			return i
		}
	}
	return len(bounds)
}

// Map is a (buckets x NumPercentiles) slowdown percentile map, row-major.
// Empty buckets hold zeros (a value no real slowdown takes, letting the
// model distinguish absence from data).
type Map struct {
	Buckets int
	Data    []float64
	// Counts[b] is the number of flows that fell into bucket b.
	Counts []int
}

// Row returns bucket b's percentile vector.
func (m *Map) Row(b int) []float64 {
	return m.Data[b*NumPercentiles : (b+1)*NumPercentiles]
}

// buildScratch holds the per-bucket slowdown lists and the sort buffer that
// Build reuses across calls: the batched estimator featurizes hundreds of
// paths per estimate, and these intermediates dominated its garbage.
type buildScratch struct {
	perBucket [][]float64
	sortBuf   []float64
}

var buildPool = sync.Pool{New: func() any { return new(buildScratch) }}

// Build produces the percentile map of the given slowdowns bucketed by flow
// size.
func Build(sizes []unit.ByteSize, sldn []float64, bounds []unit.ByteSize) *Map {
	nb := len(bounds) + 1
	m := &Map{
		Buckets: nb,
		Data:    make([]float64, nb*NumPercentiles),
		Counts:  make([]int, nb),
	}
	sc := buildPool.Get().(*buildScratch)
	for len(sc.perBucket) < nb {
		sc.perBucket = append(sc.perBucket, nil)
	}
	perBucket := sc.perBucket[:nb]
	for b := range perBucket {
		perBucket[b] = perBucket[b][:0]
	}
	for i, s := range sizes {
		b := BucketOf(s, bounds)
		perBucket[b] = append(perBucket[b], sldn[i])
		m.Counts[b]++
	}
	for b, xs := range perBucket {
		if len(xs) == 0 {
			continue
		}
		sc.sortBuf = stats.PercentilesInto(xs, stats.PercentileGrid, m.Row(b), sc.sortBuf)
	}
	buildPool.Put(sc)
	return m
}

// BucketCounts tallies flows per size bucket without building percentile
// rows — the cheap path for callers that only need occupancy (the batched
// estimator, which gets its percentiles from the model).
func BucketCounts(sizes []unit.ByteSize, bounds []unit.ByteSize) []int {
	counts := make([]int, len(bounds)+1)
	for _, s := range sizes {
		counts[BucketOf(s, bounds)]++
	}
	return counts
}

// BuildFeature builds the standard 10-bucket feature map.
func BuildFeature(sizes []unit.ByteSize, sldn []float64) *Map {
	return Build(sizes, sldn, FeatureBucketBounds)
}

// BuildOutput builds the standard 4-bucket output/ground-truth map.
func BuildOutput(sizes []unit.ByteSize, sldn []float64) *Map {
	return Build(sizes, sldn, OutputBucketBounds)
}

// LogTransform applies log1p to every cell in place and returns m.Data, the
// model-side input scaling (keeps heavy-tailed slowdowns in a trainable
// range; zeros stay zero so empty buckets remain distinguishable). The map
// holds transformed values afterwards.
func (m *Map) LogTransform() []float64 {
	for i, v := range m.Data {
		m.Data[i] = math.Log1p(v)
	}
	return m.Data
}

// SpecDim is the length of the network-specification vector.
const SpecDim = 16

// SpecVector encodes the network configuration and path BDP as the paper's
// spec input (§3.4): BDP, one-hot CC, and each Table 4 parameter normalized
// by the top of its sample-space range. Parameters of protocols other than
// the active one are zeroed so the model sees exactly the knobs in force.
func SpecVector(cfg packetsim.Config, bdp unit.ByteSize, baseRTT unit.Time) []float64 {
	v := make([]float64, SpecDim)
	v[0] = float64(bdp) / 30e3
	v[1] = baseRTT.Seconds() / 100e-6
	v[2+int(cfg.CC)] = 1 // one-hot over DCTCP, TIMELY, DCQCN, HPCC
	v[6] = float64(cfg.InitWindow) / 30e3
	v[7] = float64(cfg.Buffer) / 500e3
	if cfg.PFC {
		v[8] = 1
	}
	switch cfg.CC {
	case packetsim.DCTCP:
		v[9] = float64(cfg.DCTCPK) / 20e3
	case packetsim.DCQCN:
		v[10] = float64(cfg.DCQCNKmin) / 50e3
		v[11] = float64(cfg.DCQCNKmax) / 100e3
	case packetsim.HPCC:
		v[12] = cfg.HPCCEta
		v[13] = float64(cfg.HPCCRateAI) / float64(1000*unit.Mbps)
	case packetsim.TIMELY:
		v[14] = cfg.TimelyTLow.Seconds() / 60e-6
		v[15] = cfg.TimelyTHigh.Seconds() / 150e-6
	}
	return v
}

package feature

import (
	"math"
	"sort"
	"testing"

	"m3/internal/packetsim"
	"m3/internal/rng"
	"m3/internal/unit"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		size unit.ByteSize
		want int
	}{
		{1, 0}, {250, 0}, {251, 1}, {500, 1}, {1000, 2}, {2000, 3},
		{5000, 4}, {10000, 5}, {20000, 6}, {30000, 7}, {50000, 8},
		{50001, 9}, {10 * unit.MB, 9},
	}
	for _, c := range cases {
		if got := BucketOf(c.size, FeatureBucketBounds); got != c.want {
			t.Errorf("BucketOf(%d) = %d, want %d", c.size, got, c.want)
		}
	}
	if got := BucketOf(999, OutputBucketBounds); got != 0 {
		t.Errorf("output bucket of 999 = %d", got)
	}
	if got := BucketOf(60000, OutputBucketBounds); got != 3 {
		t.Errorf("output bucket of 60000 = %d", got)
	}
}

func TestBuildShapes(t *testing.T) {
	sizes := []unit.ByteSize{100, 600, 5 * unit.KB, 100 * unit.KB}
	sldn := []float64{1.5, 2.0, 3.0, 1.2}
	m := BuildFeature(sizes, sldn)
	if m.Buckets != NumFeatureBuckets || len(m.Data) != FeatureDim {
		t.Fatalf("feature map shape %dx%d", m.Buckets, len(m.Data))
	}
	o := BuildOutput(sizes, sldn)
	if o.Buckets != NumOutputBuckets || len(o.Data) != OutputDim {
		t.Fatalf("output map shape %dx%d", o.Buckets, len(o.Data))
	}
}

func TestBuildCountsAndRows(t *testing.T) {
	sizes := []unit.ByteSize{100, 150, 600}
	sldn := []float64{2, 4, 7}
	m := BuildFeature(sizes, sldn)
	if m.Counts[0] != 2 || m.Counts[1] != 0 || m.Counts[2] != 1 {
		t.Errorf("counts = %v", m.Counts[:3])
	}
	// Bucket 0 has {2,4}: percentile 1 ~ 2, percentile 100 = 4.
	row := m.Row(0)
	if row[0] < 2 || row[0] > 2.1 {
		t.Errorf("p1 = %v, want ~2", row[0])
	}
	if row[99] != 4 {
		t.Errorf("p100 = %v, want 4", row[99])
	}
	if !sort.Float64sAreSorted(row) {
		t.Error("percentile row not monotone")
	}
	// Single-flow bucket: constant row.
	row2 := m.Row(2)
	for _, v := range row2 {
		if v != 7 {
			t.Errorf("single-flow bucket row not constant: %v", v)
		}
	}
	// Empty bucket: zero row.
	for _, v := range m.Row(1) {
		if v != 0 {
			t.Errorf("empty bucket row not zero: %v", v)
		}
	}
}

func TestBuildEmpty(t *testing.T) {
	m := BuildFeature(nil, nil)
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("empty build should be all zeros")
		}
	}
	for _, c := range m.Counts {
		if c != 0 {
			t.Fatal("empty build should have zero counts")
		}
	}
}

func TestLogTransform(t *testing.T) {
	sizes := []unit.ByteSize{100}
	sldn := []float64{math.E - 1}
	m := BuildFeature(sizes, sldn)
	lt := m.LogTransform()
	if math.Abs(lt[0]-1) > 1e-12 {
		t.Errorf("log1p(e-1) = %v, want 1", lt[0])
	}
	// zeros stay zero
	if lt[NumPercentiles] != 0 {
		t.Error("empty cell transformed to non-zero")
	}
	if len(lt) != len(m.Data) {
		t.Error("transform changed length")
	}
	if &lt[0] != &m.Data[0] {
		t.Error("transform allocated a copy instead of working in place")
	}
}

func TestSpecVectorOneHot(t *testing.T) {
	for _, cc := range []packetsim.CCType{packetsim.DCTCP, packetsim.TIMELY, packetsim.DCQCN, packetsim.HPCC} {
		cfg := packetsim.DefaultConfig()
		cfg.CC = cc
		v := SpecVector(cfg, 15*unit.KB, 20*unit.Microsecond)
		if len(v) != SpecDim {
			t.Fatalf("spec dim %d", len(v))
		}
		hot := 0
		for i := 2; i < 6; i++ {
			if v[i] == 1 {
				hot++
				if i-2 != int(cc) {
					t.Errorf("wrong one-hot position for %v", cc)
				}
			} else if v[i] != 0 {
				t.Errorf("one-hot slot %d = %v", i, v[i])
			}
		}
		if hot != 1 {
			t.Errorf("%v: %d hot positions", cc, hot)
		}
	}
}

func TestSpecVectorParamsGated(t *testing.T) {
	cfg := packetsim.DefaultConfig()
	cfg.CC = packetsim.HPCC
	v := SpecVector(cfg, 15*unit.KB, 20*unit.Microsecond)
	if v[12] != cfg.HPCCEta {
		t.Errorf("eta = %v", v[12])
	}
	if v[9] != 0 || v[10] != 0 || v[14] != 0 {
		t.Error("inactive protocol params not zeroed")
	}
	cfg.CC = packetsim.DCTCP
	v = SpecVector(cfg, 15*unit.KB, 20*unit.Microsecond)
	if v[9] == 0 {
		t.Error("DCTCP K missing")
	}
	if v[12] != 0 {
		t.Error("HPCC eta not zeroed under DCTCP")
	}
}

func TestSpecVectorNormalizedRange(t *testing.T) {
	// Across the Table 4 sample space, encodings stay in [0, ~1.2].
	r := rng.New(1)
	for trial := 0; trial < 100; trial++ {
		cfg := packetsim.DefaultConfig()
		cfg.CC = packetsim.CCType(r.Intn(4))
		cfg.InitWindow = unit.ByteSize(5000 + r.Intn(25000))
		cfg.Buffer = unit.ByteSize(200000 + r.Intn(300000))
		cfg.PFC = r.Intn(2) == 0
		v := SpecVector(cfg, unit.ByteSize(r.Intn(30000)), unit.Time(r.Intn(100000)))
		for i, x := range v {
			if x < 0 || x > 1.3 || math.IsNaN(x) {
				t.Fatalf("spec[%d] = %v out of range", i, x)
			}
		}
	}
}

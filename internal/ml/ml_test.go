package ml

import (
	"math"
	"testing"

	"m3/internal/rng"
)

// numGrad computes the finite-difference gradient of loss() wrt p.W[i].
func numGrad(p *Param, i int, loss func() float64) float64 {
	const h = 1e-6
	orig := p.W[i]
	p.W[i] = orig + h
	up := loss()
	p.W[i] = orig - h
	down := loss()
	p.W[i] = orig
	return (up - down) / (2 * h)
}

func checkGrads(t *testing.T, name string, params []*Param, loss func() float64, backward func()) {
	t.Helper()
	for _, p := range params {
		p.ZeroGrad()
	}
	backward()
	for _, p := range params {
		// Spot-check a few indices per parameter.
		step := max(1, len(p.W)/7)
		for i := 0; i < len(p.W); i += step {
			want := numGrad(p, i, loss)
			got := p.G[i]
			denom := math.Max(1e-4, math.Abs(want))
			if math.Abs(got-want)/denom > 2e-3 {
				t.Errorf("%s: %s grad[%d] = %v, finite diff %v", name, p.Name, i, got, want)
			}
		}
	}
}

func TestLinearGradcheck(t *testing.T) {
	r := rng.New(1)
	l := NewLinear("lin", 5, 3, r)
	x := []float64{0.3, -0.5, 0.7, 0.1, -0.2}
	target := []float64{0.4, -0.1, 0.9}
	dpred := make([]float64, 3)
	loss := func() float64 {
		y := l.Forward(x)
		v, _ := L1Loss(y, target, dpred)
		return v
	}
	checkGrads(t, "linear", l.Params(), loss, func() {
		loss()
		l.Backward(append([]float64(nil), dpred...))
	})
}

func TestRMSNormGradcheck(t *testing.T) {
	r := rng.New(2)
	n := NewRMSNorm("norm", 6)
	for i := range n.Gain.W {
		n.Gain.W[i] = 0.5 + 0.2*r.Float64()
	}
	x := []float64{0.3, -0.5, 0.7, 0.1, -0.2, 0.9}
	target := make([]float64, 6)
	dpred := make([]float64, 6)
	loss := func() float64 {
		y := n.Forward(x)
		v, _ := L1Loss(y, target, dpred)
		return v
	}
	checkGrads(t, "rmsnorm", n.Params(), loss, func() {
		loss()
		n.Backward(append([]float64(nil), dpred...))
	})
}

func TestRMSNormInputGradcheck(t *testing.T) {
	// Check dx numerically too (layer composition correctness).
	n := NewRMSNorm("norm", 4)
	x := []float64{0.3, -0.5, 0.7, 0.1}
	target := []float64{0, 0.2, -0.3, 0.5}
	dpred := make([]float64, 4)
	loss := func() float64 {
		y := n.Forward(x)
		v, _ := L1Loss(y, target, dpred)
		return v
	}
	loss()
	dx := n.Backward(append([]float64(nil), dpred...))
	for i := range x {
		const h = 1e-6
		orig := x[i]
		x[i] = orig + h
		up := loss()
		x[i] = orig - h
		down := loss()
		x[i] = orig
		want := (up - down) / (2 * h)
		if math.Abs(dx[i]-want) > 1e-4 {
			t.Errorf("dx[%d] = %v, finite diff %v", i, dx[i], want)
		}
	}
}

func TestSwiGLUGradcheck(t *testing.T) {
	r := rng.New(3)
	s := NewSwiGLU("ffn", 4, 6, r)
	x := []float64{0.3, -0.5, 0.7, 0.1}
	target := []float64{0.1, 0.2, -0.1, 0}
	dpred := make([]float64, 4)
	loss := func() float64 {
		y := s.Forward(x)
		v, _ := L1Loss(y, target, dpred)
		return v
	}
	checkGrads(t, "swiglu", s.Params(), loss, func() {
		loss()
		s.Backward(append([]float64(nil), dpred...))
	})
}

func TestMLPGradcheck(t *testing.T) {
	r := rng.New(4)
	m := NewMLP("mlp", 5, 8, 3, r)
	x := []float64{0.3, -0.5, 0.7, 0.1, 0.4}
	target := []float64{0.4, -0.1, 0.9}
	dpred := make([]float64, 3)
	loss := func() float64 {
		y := m.Forward(x)
		v, _ := L1Loss(y, target, dpred)
		return v
	}
	checkGrads(t, "mlp", m.Params(), loss, func() {
		loss()
		m.Backward(append([]float64(nil), dpred...))
	})
}

func seqLoss(ys [][]float64, targets [][]float64, douts [][]float64) float64 {
	var total float64
	for t := range ys {
		v, _ := L1Loss(ys[t], targets[t], douts[t])
		// average over positions
		for i := range douts[t] {
			douts[t][i] /= float64(len(ys))
		}
		total += v
	}
	return total / float64(len(ys))
}

func TestMHAGradcheck(t *testing.T) {
	r := rng.New(5)
	m, err := NewMHA("attn", 4, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	xs := [][]float64{
		{0.3, -0.5, 0.7, 0.1},
		{-0.2, 0.4, 0.0, 0.6},
		{0.5, 0.1, -0.3, 0.2},
	}
	targets := [][]float64{
		{0.1, 0, 0.2, -0.1},
		{0, 0.3, -0.2, 0.1},
		{0.2, -0.1, 0, 0.4},
	}
	douts := [][]float64{make([]float64, 4), make([]float64, 4), make([]float64, 4)}
	loss := func() float64 {
		ys := m.Forward(xs)
		return seqLoss(ys, targets, douts)
	}
	checkGrads(t, "mha", m.Params(), loss, func() {
		loss()
		cp := make([][]float64, len(douts))
		for i := range douts {
			cp[i] = append([]float64(nil), douts[i]...)
		}
		m.Backward(cp)
	})
}

func TestBlockGradcheck(t *testing.T) {
	r := rng.New(6)
	b, err := NewBlock("blk", 4, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	xs := [][]float64{
		{0.3, -0.5, 0.7, 0.1},
		{-0.2, 0.4, 0.0, 0.6},
	}
	targets := [][]float64{
		{0.1, 0, 0.2, -0.1},
		{0, 0.3, -0.2, 0.1},
	}
	douts := [][]float64{make([]float64, 4), make([]float64, 4)}
	loss := func() float64 {
		ys := b.Forward(xs)
		return seqLoss(ys, targets, douts)
	}
	checkGrads(t, "block", b.Params(), loss, func() {
		loss()
		cp := make([][]float64, len(douts))
		for i := range douts {
			cp[i] = append([]float64(nil), douts[i]...)
		}
		b.Backward(cp)
	})
}

func TestEncoderGradcheck(t *testing.T) {
	r := rng.New(7)
	e, err := NewEncoder("enc", 6, 4, 2, 2, 5, r)
	if err != nil {
		t.Fatal(err)
	}
	feats := [][]float64{
		{0.1, 0.3, -0.2, 0.5, 0.0, 0.4},
		{0.6, -0.1, 0.2, 0.1, 0.3, -0.4},
		{-0.3, 0.2, 0.4, 0.0, 0.1, 0.2},
	}
	target := []float64{0.2, -0.1, 0.3, 0}
	dctx := make([]float64, 4)
	loss := func() float64 {
		ctx, err := e.Forward(feats)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := L1Loss(ctx, target, dctx)
		return v
	}
	checkGrads(t, "encoder", e.Params(), loss, func() {
		loss()
		e.Backward(append([]float64(nil), dctx...))
	})
}

func TestEncoderSeqBounds(t *testing.T) {
	r := rng.New(8)
	e, err := NewEncoder("enc", 3, 4, 2, 1, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Forward(nil); err == nil {
		t.Error("empty sequence accepted")
	}
	long := [][]float64{{1, 2, 3}, {1, 2, 3}, {1, 2, 3}}
	if _, err := e.Forward(long); err == nil {
		t.Error("overlong sequence accepted")
	}
}

func TestEncoderVariableLength(t *testing.T) {
	r := rng.New(9)
	e, err := NewEncoder("enc", 3, 4, 2, 1, 6, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 6} {
		feats := make([][]float64, n)
		for i := range feats {
			feats[i] = []float64{0.1, 0.2, 0.3}
		}
		ctx, err := e.Forward(feats)
		if err != nil {
			t.Fatalf("len %d: %v", n, err)
		}
		if len(ctx) != 4 {
			t.Fatalf("ctx dim %d", len(ctx))
		}
	}
}

func TestMHARejectsBadHeads(t *testing.T) {
	r := rng.New(10)
	if _, err := NewMHA("x", 5, 2, r); err == nil {
		t.Error("dim 5 / heads 2 accepted")
	}
	if _, err := NewMHA("x", 4, 0, r); err == nil {
		t.Error("zero heads accepted")
	}
}

func TestL1Loss(t *testing.T) {
	d := make([]float64, 2)
	v, err := L1Loss([]float64{1, 3}, []float64{2, 1}, d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1.5) > 1e-12 {
		t.Errorf("loss = %v, want 1.5", v)
	}
	if d[0] != -0.5 || d[1] != 0.5 {
		t.Errorf("grads = %v", d)
	}
	if _, err := L1Loss([]float64{1}, []float64{1, 2}, d); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestAdamConvergesOnToyRegression(t *testing.T) {
	// Fit y = Ax with a small linear layer via L1; loss should collapse.
	r := rng.New(11)
	teacher := NewLinear("teacher", 4, 3, r)
	student := NewLinear("student", 4, 3, r)
	opt := NewAdam(student.Params(), 0.02)
	var first, last float64
	for epoch := 0; epoch < 400; epoch++ {
		var epochLoss float64
		const batch = 8
		for b := 0; b < batch; b++ {
			x := []float64{r.Gauss(), r.Gauss(), r.Gauss(), r.Gauss()}
			target := teacher.Forward(x)
			pred := student.Forward(x)
			dpred := make([]float64, len(pred))
			v, _ := L1Loss(pred, target, dpred)
			epochLoss += v
			student.Backward(dpred)
		}
		opt.Step(batch)
		if epoch == 0 {
			first = epochLoss / batch
		}
		last = epochLoss / batch
	}
	if last > first*0.1 {
		t.Errorf("Adam did not converge: first %v, last %v", first, last)
	}
}

func TestAdamStepZeroesGrads(t *testing.T) {
	r := rng.New(12)
	p := NewParam("p", 2, 2, r)
	p.G[0] = 1
	opt := NewAdam([]*Param{p}, 0.1)
	opt.Step(1)
	for i, g := range p.G {
		if g != 0 {
			t.Errorf("grad[%d] = %v after step", i, g)
		}
	}
}

func TestGradClipBoundsUpdate(t *testing.T) {
	r := rng.New(13)
	p := NewParam("p", 1, 4, r)
	before := append([]float64(nil), p.W...)
	for i := range p.G {
		p.G[i] = 1e9
	}
	opt := NewAdam([]*Param{p}, 0.01)
	opt.Step(1)
	for i := range p.W {
		if d := math.Abs(p.W[i] - before[i]); d > 0.011 {
			t.Errorf("clipped update moved weight by %v", d)
		}
	}
}

// TestScratchSettlesToOneSlab: batches of varying shape strand slab space,
// but after any cycle that spilled into a second slab the Scratch swaps to
// one slab sized to that demand, so a recycled Scratch stays bounded by its
// largest batch. Buffers handed out within a cycle never overlap.
func TestScratchSettlesToOneSlab(t *testing.T) {
	r := rng.New(14)
	s := new(Scratch)
	largest := 0
	for cycle := 0; cycle < 200; cycle++ {
		var bufs [][]float64
		used := 0
		for k := 0; k < 6; k++ {
			n := 1 + r.Intn(3*minSlabFloats)
			b := s.FloatsUninit(n)
			for i := range b {
				b[i] = float64(k)
			}
			bufs = append(bufs, b)
			used += n
		}
		for k, b := range bufs {
			for _, v := range b {
				if v != float64(k) {
					t.Fatalf("cycle %d: buffer %d was overwritten by a later one", cycle, k)
				}
			}
		}
		largest = max(largest, used)
		s.Reset()
		if len(s.f64.list) != 1 {
			t.Fatalf("cycle %d: %d slabs after reset, want 1", cycle, len(s.f64.list))
		}
		if got := len(s.f64.list[0]); got > largest+largest/4 {
			t.Fatalf("cycle %d: slab of %d floats exceeds 1.25 x largest demand %d", cycle, got, largest)
		}
	}
}

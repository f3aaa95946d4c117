package ml

import "sync"

// Tensor is a dense row-major matrix view over a flat float64 slice. It is
// the batched-inference counterpart of the [][]float64 sequences the
// training path uses: one contiguous allocation instead of one slice per
// position, so whole layers reduce to single loop nests over flat memory.
type Tensor struct {
	Rows, Cols int
	Data       []float64
}

// Row returns row r as a slice aliasing the tensor's storage.
func (t Tensor) Row(r int) []float64 {
	return t.Data[r*t.Cols : (r+1)*t.Cols]
}

// minSlabFloats is the smallest slab a Scratch allocates (128 KiB). Batches
// bigger than a slab get a dedicated slab of exactly their size.
const minSlabFloats = 1 << 14

// Scratch is a bump allocator for inference temporaries. Buffers handed out
// by Floats/Ints/Tensor stay valid until Reset; the slabs behind them are
// kept across Reset, so a Scratch reaches a high-water mark once and then
// serves every later batch of the same shape with zero heap allocation.
//
// A Scratch is not safe for concurrent use; GetScratch/PutScratch recycle
// instances through a sync.Pool so each goroutine works on its own.
type Scratch struct {
	// Par bounds intra-call data parallelism for the heavy matmul kernels
	// (SeqLinear/Linear/QLinear ApplyTensor): values > 1 let a kernel shard
	// its output-row blocks across up to Par goroutines. 0 or 1 means
	// serial. Sharding splits rows into contiguous blocks, each computed by
	// the unchanged serial per-row code, so outputs are bit-identical to
	// Par=1 — only the wall clock changes. Scratch allocation itself stays
	// single-goroutine: kernels carve every buffer before spawning workers.
	Par int

	f64  slabs[float64]
	ints slabs[int]
	i8   slabs[int8]
	i32  slabs[int32]
	u64  slabs[uint64]
}

// slabs bump-allocates buffers of T from a list of slabs. A buffer that
// does not fit the rest of the current slab moves on to the next one, so
// batches of varying shape can strand slab space; when a cycle (Reset to
// Reset) spilled past its first slab, reset swaps the list for one slab
// with room for that cycle's whole demand plus a quarter. A long-lived
// Scratch thus settles at one slab sized to its largest batch instead of
// accumulating slabs.
type slabs[T any] struct {
	list [][]T
	cur  int // slab currently being bump-allocated
	off  int // next free element in list[cur]
	used int // elements handed out since the last reset
}

func (a *slabs[T]) take(n, minSlab int) []T {
	a.used += n
	for a.cur < len(a.list) {
		if slab := a.list[a.cur]; a.off+n <= len(slab) {
			out := slab[a.off : a.off+n : a.off+n]
			a.off += n
			return out
		}
		a.cur++
		a.off = 0
	}
	a.list = append(a.list, make([]T, max(n, minSlab)))
	a.off = n
	return a.list[a.cur][:n:n]
}

func (a *slabs[T]) reset() {
	if len(a.list) > 1 {
		a.list = [][]T{make([]T, a.used+a.used/4)}
	}
	a.cur, a.off, a.used = 0, 0, 0
}

// Reset releases every outstanding buffer at once. Slabs are retained; Par
// is cleared so a recycled Scratch defaults back to serial kernels.
func (s *Scratch) Reset() {
	s.Par = 0
	s.f64.reset()
	s.ints.reset()
	s.i8.reset()
	s.i32.reset()
	s.u64.reset()
}

// Floats returns a zeroed length-n buffer valid until Reset.
func (s *Scratch) Floats(n int) []float64 {
	out := s.FloatsUninit(n)
	clear(out)
	return out
}

// FloatsUninit is Floats without the zeroing, for buffers the caller fully
// overwrites before reading (most layer outputs). Contents are whatever the
// previous batch left in the slab.
func (s *Scratch) FloatsUninit(n int) []float64 { return s.f64.take(n, minSlabFloats) }

// Ints returns a zeroed length-n int buffer valid until Reset.
func (s *Scratch) Ints(n int) []int {
	out := s.ints.take(n, 256)
	clear(out)
	return out
}

// Int8sUninit returns a length-n int8 buffer valid until Reset, without
// zeroing. The quantized inference path uses these for per-row activation
// quantization, where every byte is written before being read.
func (s *Scratch) Int8sUninit(n int) []int8 { return s.i8.take(n, 1024) }

// Int32sUninit returns a length-n int32 buffer valid until Reset, without
// zeroing. The quantized GEMM widens each activation row into one of these
// once, so the inner loops sign-extend only the weight bytes.
func (s *Scratch) Int32sUninit(n int) []int32 { return s.i32.take(n, 1024) }

// Uint64sUninit returns a length-n uint64 buffer valid until Reset, without
// zeroing. The quantized GEMM biases each activation row into one of these
// once per row for the SWAR kernel.
func (s *Scratch) Uint64sUninit(n int) []uint64 { return s.u64.take(n, 1024) }

// Tensor returns a zeroed rows x cols tensor backed by the scratch.
func (s *Scratch) Tensor(rows, cols int) Tensor {
	return Tensor{Rows: rows, Cols: cols, Data: s.Floats(rows * cols)}
}

// TensorUninit is Tensor without the zeroing, for tensors whose every cell
// is written before being read.
func (s *Scratch) TensorUninit(rows, cols int) Tensor {
	return Tensor{Rows: rows, Cols: cols, Data: s.FloatsUninit(rows * cols)}
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch takes a reusable Scratch from the shared pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch resets s and returns it to the pool. Buffers obtained from s
// must not be used afterwards.
func PutScratch(s *Scratch) {
	s.Reset()
	scratchPool.Put(s)
}

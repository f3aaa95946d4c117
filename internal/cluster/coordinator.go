package cluster

import (
	"context"
	"sync"
	"sync/atomic"

	"m3/internal/agg"
	"m3/internal/core"
	"m3/internal/pool"
)

// Shard is one contiguous slice [Lo, Hi) of a plan's distinct paths,
// assigned to a member.
type Shard struct {
	Member string
	Lo, Hi int
}

// Partition splits n paths into contiguous near-equal shards across the
// live members (self always included, down peers skipped). Contiguity
// matters: the gathered outputs land back in plan order by slice copy, so
// the assembled estimate is identical to the single-process one no matter
// how the fleet splits the work. Per-member liveness is a pair of atomic
// loads (Peer.Up reads breaker state, not the clock), so asking for every
// member on every scatter is free.
func (f *Fleet) Partition(n int) []Shard {
	members := make([]string, 0, len(f.members))
	for _, m := range f.members {
		if m == f.self {
			members = append(members, m)
			continue
		}
		if p := f.Peer(m); p != nil && p.Up() {
			members = append(members, m)
		}
	}
	nm := len(members)
	if nm > n {
		members, nm = members[:n], n
	}
	shards := make([]Shard, 0, nm)
	base, rem := n/nm, n%nm
	lo := 0
	for i, m := range members {
		size := base
		if i < rem {
			size++
		}
		shards = append(shards, Shard{Member: m, Lo: lo, Hi: lo + size})
		lo += size
	}
	return shards
}

// ScatterStats reports how one estimate's work spread across the fleet.
type ScatterStats struct {
	// Shards is the number of partitions (== live members at plan time).
	Shards int
	// RemoteShards counts shards a peer actually computed.
	RemoteShards int
	// FallbackShards counts shards whose peer failed (down, timeout, shed,
	// model mismatch) and were recomputed locally instead — the estimate
	// degrades to less parallelism, never to an error.
	FallbackShards int
	// FallbackPaths counts the paths inside those fallback shards.
	FallbackPaths int
}

// Scatter partitions distinct/mult across the live members, executes the
// remote shards over HTTP and the self shard (plus any fallbacks) via
// local, and gathers the outputs back in plan order. tmpl carries the
// request fields shared by every shard; Indices/Mults are filled per shard.
//
// Peer fan-out runs on the fleet's own small worker pool with first-error
// cancellation: a genuine local error (validation, cancelled ctx) aborts
// the remaining shards, while peer failures are contained inside their
// shard as local fallbacks and never fail the estimate.
func (f *Fleet) Scatter(ctx context.Context, tmpl *PathsRequest, distinct, mult []int,
	local func(ctx context.Context, distinct, mult []int) (*core.ShardResult, error),
) (*core.ShardResult, *ScatterStats, error) {

	shards := f.Partition(len(distinct))
	stats := &ScatterStats{Shards: len(shards)}
	out := &core.ShardResult{Outs: make([]agg.PathOutput, len(distinct))}
	var remote, fallback, fallbackPaths atomic.Int64
	var mu sync.Mutex
	merge := func(sh Shard, sr *core.ShardResult) {
		copy(out.Outs[sh.Lo:sh.Hi], sr.Outs)
		mu.Lock()
		out.Merge(sr)
		mu.Unlock()
	}

	runLocal := func(ctx context.Context, sh Shard) error {
		sr, err := local(ctx, distinct[sh.Lo:sh.Hi], mult[sh.Lo:sh.Hi])
		if err != nil {
			return err
		}
		merge(sh, sr)
		return nil
	}

	err := f.rpc.Run(ctx, len(shards), func(ctx context.Context, i int) error {
		sh := shards[i]
		if sh.Member == f.self {
			return runLocal(ctx, sh)
		}
		p := f.Peer(sh.Member)
		req := *tmpl
		req.Indices = distinct[sh.Lo:sh.Hi]
		req.Mults = mult[sh.Lo:sh.Hi]
		// Peer.Call owns the resilience stack: per-attempt timeouts,
		// budget-gated retries on transient failures, and breaker
		// bookkeeping (transport trouble trips it; structured refusals —
		// shed, timeout, model mismatch — come from a replica healthy
		// enough to answer and do not).
		var resp *PathsResponse
		err := p.Call(ctx, func(ctx context.Context) error {
			r, err := p.Client.Paths(ctx, &req)
			if err == nil {
				resp = r
			}
			return err
		})
		if err != nil {
			// The peer is unreachable, shedding, timing out, or serving a
			// different model generation, and retries are exhausted (or the
			// breaker refused up front): compute the shard here instead.
			if ctx.Err() != nil {
				return ctx.Err()
			}
			fallback.Add(1)
			fallbackPaths.Add(int64(sh.Hi - sh.Lo))
			return runLocal(ctx, sh)
		}
		merge(sh, resp)
		remote.Add(1)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	stats.RemoteShards = int(remote.Load())
	stats.FallbackShards = int(fallback.Load())
	stats.FallbackPaths = int(fallbackPaths.Load())
	return out, stats, nil
}

// Close stops the background prober and releases the fleet's peer fan-out
// pool. Safe to call more than once.
func (f *Fleet) Close() {
	f.closeOnce.Do(func() {
		if f.stop != nil {
			close(f.stop)
		}
		f.rpc.Close()
	})
}

// newRPCPool sizes the peer fan-out pool: one slot per member so a full
// scatter never queues behind itself, floor of two so a degenerate fleet
// still overlaps a fallback with the self shard.
func newRPCPool(members int) *pool.Pool {
	n := members
	if n < 2 {
		n = 2
	}
	return pool.New(n)
}

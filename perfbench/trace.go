package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the ID of the enclosing span (-1 for a root). N and Bytes are
// the work counts recorded at the same boundary (flows simulated, samples
// predicted, bytes allocated), zero when the layer has none.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, which is how the untraced replay runs the same code. It
// is used from one goroutine only: the traced replay is sequential.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil recorder).
func (r *recorder) begin(name string, req, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{
		Name: name, Req: req, ID: len(r.spans), Parent: parent,
		Start: int64(time.Since(r.t0)),
	})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = int64(time.Since(r.t0))
}

// count attaches work counts to span id.
func (r *recorder) count(id int, n, bytes int64) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].N += n
	r.spans[id].Bytes += bytes
}

// writeJSONL writes every span, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("perfbench: write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("perfbench: write spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children count once,
// and a child reaching outside its parent is clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ lo, hi int64 }
	for i := range spans {
		s := &spans[i]
		ivs := make([]iv, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		open := false
		for _, v := range ivs {
			if open && v.lo <= curHi {
				curHi = max(curHi, v.hi)
				continue
			}
			if open {
				covered += curHi - curLo
			}
			curLo, curHi, open = v.lo, v.hi, true
		}
		if open {
			covered += curHi - curLo
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerTotals sums, per request, each span name's self time, call count and
// work counts.
type layerTotals struct {
	selfNs map[string]int64
	calls  map[string]int64
	n      map[string]int64
	bytes  map[string]int64
}

// totalsByRequest groups spans by request and sums them by name.
func totalsByRequest(spans []span, self []int64) map[int]*layerTotals {
	out := make(map[int]*layerTotals)
	for i := range spans {
		s := &spans[i]
		t := out[s.Req]
		if t == nil {
			t = &layerTotals{
				selfNs: map[string]int64{}, calls: map[string]int64{},
				n: map[string]int64{}, bytes: map[string]int64{},
			}
			out[s.Req] = t
		}
		t.selfNs[s.Name] += self[i]
		t.calls[s.Name]++
		t.n[s.Name] += s.N
		t.bytes[s.Name] += s.Bytes
	}
	return out
}

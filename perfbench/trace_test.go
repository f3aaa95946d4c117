package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Req: 0, ID: 0, Parent: -1, Start: 0, End: 100},
		// Two overlapping children cover [10, 50] of the root once.
		{Name: "a", Req: 0, ID: 1, Parent: 0, Start: 10, End: 30},
		{Name: "b", Req: 0, ID: 2, Parent: 0, Start: 20, End: 50},
		// A child running past its parent's end is clipped to it.
		{Name: "c", Req: 0, ID: 3, Parent: 0, Start: 90, End: 120},
		{Name: "a1", Req: 0, ID: 4, Parent: 1, Start: 12, End: 15},
		// Another request's root: no children, self time is its duration.
		{Name: "root", Req: 1, ID: 5, Parent: -1, Start: 200, End: 260},
	}
	want := []int64{50, 17, 30, 30, 3, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}

	tot := totalsByRequest(spans, got)
	if r := tot[0]; r.selfNs["root"] != 50 || r.calls["root"] != 1 || r.selfNs["a"] != 17 {
		t.Errorf("request 0 totals = %+v", r)
	}
	if r := tot[1]; r.selfNs["root"] != 60 || r.calls["root"] != 1 {
		t.Errorf("request 1 totals = %+v", r)
	}
}

func TestRecorder(t *testing.T) {
	var off *recorder
	if id := off.begin("x", 0, -1); id != -1 {
		t.Errorf("nil recorder begin = %d, want -1", id)
	}
	off.count(-1, 1, 1)
	off.end(-1)

	rec := newRecorder()
	root := rec.begin("request", 7, -1)
	child := rec.begin("flowsim", 7, root)
	rec.count(child, 3, 64)
	rec.end(child)
	rec.end(root)
	if len(rec.spans) != 2 {
		t.Fatalf("%d spans, want 2", len(rec.spans))
	}
	c := rec.spans[child]
	if c.Parent != root || c.Req != 7 || c.N != 3 || c.Bytes != 64 || c.End < c.Start {
		t.Errorf("child span = %+v", c)
	}
	if r := rec.spans[root]; r.Start > c.Start || r.End < c.End {
		t.Errorf("root %+v does not enclose child %+v", r, c)
	}
}

package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	// root [0,100] has children a [10,40] and b [30,60], which overlap, and
	// c [90,120], which outlives it; a has child a1 [15,25].
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120},
		{ID: 4, Parent: 1, Name: "a1", Start: 15, End: 25},
		{ID: 5, Parent: -1, Name: "a", Start: 200, End: 205},
	}
	want := []time.Duration{100 - 50 - 10, 30 - 10, 30, 30, 10, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self time %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestRecorderOffRecordsNothing(t *testing.T) {
	r := newRecorder()
	r.do(0, -1, "x", func() {})
	if len(r.spans) != 0 {
		t.Fatalf("an off recorder kept %d spans", len(r.spans))
	}
	r.on = true
	root := r.begin(0, -1, "root")
	r.do(0, root, "child", func() {})
	r.end(root)
	if len(r.spans) != 2 || r.spans[1].Parent != root || r.spans[0].End < r.spans[1].End {
		t.Fatalf("spans = %+v", r.spans)
	}
}

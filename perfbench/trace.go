package main

import (
	"encoding/json"
	"os"
	"slices"
	"time"
)

// span is one timed call in the traced replay.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a request's root span
	Req    int    `json:"req"`    // spans of one replayed request share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A recorder that is
// off records nothing, so the same replay code runs untraced. It is used
// from one goroutine.
type recorder struct {
	on    bool
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span named name under parent (-1 for a root) and returns
// its id.
func (r *recorder) begin(req, parent int, name string) int {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(r.epoch))})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if id >= 0 {
		r.spans[id].End = int64(time.Since(r.epoch))
	}
}

// do runs f inside a span.
func (r *recorder) do(req, parent int, name string, f func()) {
	id := r.begin(req, parent, name)
	f()
	r.end(id)
}

// write stores the spans as JSON at path.
func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, for each span, its duration minus the part of its
// interval covered by its children; overlapping children count once.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ks := kids[i]
		slices.SortFunc(ks, func(a, b span) int { return int(a.Start - b.Start) })
		var covered, reach int64 = 0, s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
			}
			reach = max(reach, min(k.End, s.End))
		}
		self[i] = s.dur() - time.Duration(covered)
	}
	return self
}

package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share Req; Parent is the index of the enclosing span (-1 for a
// root). Times are nanoseconds since the recorder was created.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out when the run ends.
// A nil recorder records nothing, so untraced runs pay one nil check per
// call.
type recorder struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.base))
}

// begin opens a span and returns its index.
func (r *recorder) begin(name string, req int64, parent int) int {
	if r == nil {
		return -1
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: t, End: -1})
	return len(r.spans) - 1
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil || id < 0 {
		return 0
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = t
	return time.Duration(t - r.spans[id].Start)
}

// add records a span whose bounds were measured elsewhere.
func (r *recorder) add(s span) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// spanTotal is one span name's aggregate: calls, total time and self time
// (time not covered by child spans).
type spanTotal struct {
	Name   string  `json:"name"`
	Calls  int     `json:"calls"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// totals folds the spans into per-name totals, largest self time first.
func (r *recorder) totals() []spanTotal {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*spanTotal{}
	for i, s := range r.spans {
		if s.End < 0 {
			continue
		}
		t := byName[s.Name]
		if t == nil {
			t = &spanTotal{Name: s.Name}
			byName[s.Name] = t
		}
		d := s.End - s.Start
		t.Calls++
		t.TotalS += float64(d) / 1e9
		t.SelfS += float64(max(d-child[i], 0)) / 1e9
	}
	out := make([]spanTotal, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}

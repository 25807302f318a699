package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (0 for a root).
// Times are nanoseconds since the tracer's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so call sites need no branches.
// One request in traceEvery is traced, and past maxSpans further spans
// are counted and dropped, which bounds the memory a long write-heavy
// run can pin.
type tracer struct {
	epoch    time.Time
	maxSpans int

	mu      sync.Mutex
	nextID  uint64
	spans   []span
	dropped int
}

const traceEvery = 4

func newTracer(maxSpans int) *tracer {
	return &tracer{epoch: time.Now(), maxSpans: maxSpans}
}

// sample returns t when request req is one of the traced ones, else nil.
func (t *tracer) sample(req uint64) *tracer {
	if req%traceEvery != 0 {
		return nil
	}
	return t
}

// id reserves a span id, so a parent can be named before it ends.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// add records a finished span with a reserved id (0 reserves one now).
func (t *tracer) add(id, parent, req uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.nextID++
		id = t.nextID
	}
	if len(t.spans) >= t.maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
}

func (t *tracer) snapshot() ([]span, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), t.dropped
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children. Children are clipped to the
// parent's interval and overlapping children count once, so parallel
// sub-calls never drive a self time below zero.
func selfTimes(spans []span) map[uint64]int64 {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	var curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}

// spanSummary is the per-name roll-up written beside the raw spans.
// Means are what the per-layer metrics use: unlike medians, the means of
// a request's stages add up to the mean of the request.
type spanSummary struct {
	Name         string  `json:"name"`
	Count        int     `json:"count"`
	MeanUS       float64 `json:"mean_us"`
	MeanSelfUS   float64 `json:"mean_self_us"`
	MedianUS     float64 `json:"median_us"`
	MedianSelfUS float64 `json:"median_self_us"`
}

// summarize groups spans by name: count, and the mean and median of
// their durations and self times.
func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	type acc struct{ durs, selfs []float64 }
	by := make(map[string]*acc)
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
		}
		a.durs = append(a.durs, float64(s.dur())/1e3)
		a.selfs = append(a.selfs, float64(self[s.ID])/1e3)
	}
	out := make([]spanSummary, 0, len(by))
	for name, a := range by {
		out = append(out, spanSummary{Name: name, Count: len(a.durs),
			MeanUS: mean(a.durs), MeanSelfUS: mean(a.selfs),
			MedianUS: median(a.durs), MedianSelfUS: median(a.selfs)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

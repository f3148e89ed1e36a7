package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// Span is one timed call into a layer's public API, recorded from the
// benchmark's side of the call.  Start and End are nanoseconds since the
// recorder's epoch; Parent is the ID of the span that caused this one
// (0 for a root); Run groups the spans of one measured operation.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's length in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Recorder keeps every span of a traced run in memory; WriteFile writes
// them out once the run is over, so no I/O lands inside a measurement.
// It is safe for concurrent use: runner progress events arrive on worker
// goroutines.
type Recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts a recorder whose clock reads zero now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Now reads the recorder's monotonic clock.
func (r *Recorder) Now() int64 { return int64(time.Since(r.epoch)) }

// At converts a wall-clock instant into the recorder's time base.
func (r *Recorder) At(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// Add stores a finished span, assigns its ID and returns it.
func (r *Recorder) Add(s Span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// Begin opens a span at the current time and returns its ID; End closes it.
func (r *Recorder) Begin(name string, run, parent int) int {
	return r.Add(Span{Name: name, Run: run, Parent: parent, Start: r.Now()})
}

// End closes the span opened by Begin.
func (r *Recorder) End(id int) {
	now := r.Now()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// SetParent re-parents a span (used once causality is known, as for runner
// runs matched to the exhibit that requested them).
func (r *Recorder) SetParent(id, parent int) {
	r.mu.Lock()
	r.spans[id-1].Parent = parent
	r.mu.Unlock()
}

// Run returns a copy of the spans of one run.
func (r *Recorder) Run(run int) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Span
	for _, s := range r.spans {
		if s.Run == run {
			out = append(out, s)
		}
	}
	return out
}

// WriteFile writes every span as one JSON object per line.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			return errors.Join(fmt.Errorf("writing spans: %w", err), f.Close())
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		return errors.Join(fmt.Errorf("writing spans: %w", err), f.Close())
	}
	return f.Close()
}

// scope nests spans opened and closed on one goroutine: each Begin's
// parent is the innermost span still open.  The simulator stack is driven
// from a single goroutine, so a cache-hierarchy flush that pushes a
// transaction batch into the power model nests the dramsim span under the
// cachesim one without any bookkeeping at the call sites.  A nil scope
// records nothing, so untraced code calls begin and end all the same.
type scope struct {
	rec  *Recorder
	run  int
	open []int
}

func (s *scope) begin(name string) {
	if s == nil {
		return
	}
	parent := 0
	if n := len(s.open); n > 0 {
		parent = s.open[n-1]
	}
	s.open = append(s.open, s.rec.Begin(name, s.run, parent))
}

func (s *scope) end() {
	if s == nil {
		return
	}
	n := len(s.open)
	s.rec.End(s.open[n-1])
	s.open = s.open[:n-1]
}

// selfTime is the parent's duration minus the part of its interval that
// its children cover.  Children may overlap — a report fans runs out
// across two workers — so the covered part is the length of the union of
// the child intervals, clipped to the parent, not the sum of their lengths.
func selfTime(parent Span, children []Span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var covered int64
	var curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			covered += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		covered += curHi - curLo
	}
	return parent.Dur() - covered
}

// selfByName sums the self time of the given spans per span name, each
// span's children being the spans whose Parent is its ID.
func selfByName(spans []Span) map[string]int64 {
	kids := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += selfTime(s, kids[s.ID])
	}
	return out
}

// totalByName sums span durations per name.
func totalByName(spans []Span) map[string]int64 {
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += s.Dur()
	}
	return out
}

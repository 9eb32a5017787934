package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the id of
// the span that caused it (0 = none); N is a count recorded at the same
// boundary (events appended, requests sent, days stepped).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	N        int64  `json:"n"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the workload ends. Every span is
// recorded from the benchmark's own files, around a call into a layer;
// the program under test is not instrumented. A nil tracer records
// nothing, so coarse boundaries may call it unconditionally; per-phase
// and per-request boundaries are guarded by the caller so the untraced
// run pays nothing for them.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex // request spans come from several client goroutines
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span and returns its id.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Name: name, StartNS: now})
	return id
}

// end closes span id with its count.
func (t *tracer) end(id int, n int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = now
	t.spans[id-1].N = n
}

// add records an interval that was timed by the caller.
func (t *tracer) add(parent int, name string, start time.Time, d time.Duration, n int64) {
	if t == nil {
		return
	}
	s := int64(start.Sub(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Workload: t.workload, Name: name, StartNS: s, EndNS: s + int64(d), N: n})
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
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

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover. Children may overlap one
// another (concurrent clients) and are clipped to the parent, so the
// covered part is the length of the union of their intervals.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals inside
// the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var total, hi int64
	hi = parent.StartNS
	for _, k := range kids {
		lo, end := k.StartNS, k.EndNS
		if lo < hi {
			lo = hi
		}
		if end > parent.EndNS {
			end = parent.EndNS
		}
		if end > lo {
			total += end - lo
			hi = end
		}
	}
	return time.Duration(total)
}

// nameTotals folds spans by name: how many, their summed duration and
// their summed self time.
type nameTotal struct {
	name        string
	count       int
	total, self time.Duration
}

func totalsByName(spans []span) []nameTotal {
	self := selfTimes(spans)
	by := map[string]*nameTotal{}
	var order []string
	for _, s := range spans {
		nt := by[s.Name]
		if nt == nil {
			nt = &nameTotal{name: s.Name}
			by[s.Name] = nt
			order = append(order, s.Name)
		}
		nt.count++
		nt.total += s.dur()
		nt.self += self[s.ID]
	}
	out := make([]nameTotal, 0, len(order))
	for _, n := range order {
		out = append(out, *by[n])
	}
	return out
}

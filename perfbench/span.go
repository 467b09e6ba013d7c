package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Parent is the id of the span that caused it (0 for a root);
// Run ties together the spans of one pass or one request.
type span struct {
	ID     int       `json:"id"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Parent int       `json:"parent,omitempty"`
	Run    int       `json:"run"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the benchmark writes them out at
// exit. A nil *tracer records nothing, which is how untraced runs keep
// end-to-end numbers free of tracing cost.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its id; end closes it. On a nil
// tracer both are no-ops and begin returns 0.
func (t *tracer) begin(name string, parent, run int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Start: time.Now(), Parent: parent, Run: run})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// named returns the closed spans with the given name.
func (t *tracer) named(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && !s.End.IsZero() {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the seconds of every closed span with that name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, s.dur().Seconds())
	}
	return out
}

// selfTimes returns each closed span's self time: its duration minus
// the part of its interval that its children cover. Children may
// overlap one another (concurrent calls); the covered part is the
// union of their intervals clipped to the parent.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 && !s.End.IsZero() {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		if s.End.IsZero() {
			continue
		}
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start.Before(cs[j].Start) })
		var covered time.Duration
		var curS, curE time.Time
		for _, c := range cs {
			a, b := c.Start, c.End
			if a.Before(s.Start) {
				a = s.Start
			}
			if b.After(s.End) {
				b = s.End
			}
			if !b.After(a) {
				continue
			}
			if curE.IsZero() || a.After(curE) {
				covered += curE.Sub(curS)
				curS, curE = a, b
			} else if b.After(curE) {
				curE = b
			}
		}
		covered += curE.Sub(curS)
		out[s.ID] = s.dur() - covered
	}
	return out
}

// selfByName sums self time per span name.
func (t *tracer) selfByName() map[string]time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// write stores the spans and the per-name self times as JSON.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	self := t.selfByName()
	selfS := make(map[string]float64, len(self))
	for k, v := range self {
		selfS[k] = v.Seconds()
	}
	t.mu.Lock()
	doc := struct {
		Spans []span             `json:"spans"`
		SelfS map[string]float64 `json:"self_s"`
	}{t.spans, selfS}
	b, err := json.MarshalIndent(doc, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

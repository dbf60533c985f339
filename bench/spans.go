package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one benchmark-side interval: a phase, an op, a call into the
// program, or an HTTP request. Parent is the id of the enclosing span
// (0 for none); lane separates concurrent requests in the trace view.
type span struct {
	Name       string
	Parent     int
	Lane       int
	Start, End time.Time
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced runs pay one nil check per span. It is used from
// one goroutine: concurrent requests are logged after they complete.
type spanLog struct {
	spans []span
}

// open starts a span and returns its id.
func (l *spanLog) open(name string, parent int, at time.Time) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{Name: name, Parent: parent, Start: at})
	return len(l.spans)
}

// close ends the span id.
func (l *spanLog) close(id int, at time.Time) {
	if l != nil && id > 0 {
		l.spans[id-1].End = at
	}
}

// add logs a finished span and returns its id.
func (l *spanLog) add(name string, parent, lane int, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{Name: name, Parent: parent, Lane: lane, Start: start, End: end})
	return len(l.spans)
}

// selfTimes returns each span's duration minus the part of it its
// children cover (children may overlap one another).
func (l *spanLog) selfTimes() []time.Duration {
	children := make([][]int, len(l.spans)+1)
	for i, s := range l.spans {
		children[s.Parent] = append(children[s.Parent], i)
	}
	self := make([]time.Duration, len(l.spans))
	for i, s := range l.spans {
		kids := children[i+1]
		sort.Slice(kids, func(a, b int) bool { return l.spans[kids[a]].Start.Before(l.spans[kids[b]].Start) })
		covered := time.Duration(0)
		var lo, hi time.Time // current union interval
		for _, k := range kids {
			a, b := l.spans[k].Start, l.spans[k].End
			if a.Before(s.Start) {
				a = s.Start
			}
			if b.After(s.End) {
				b = s.End
			}
			if !b.After(a) {
				continue
			}
			if hi.IsZero() || a.After(hi) {
				covered += hi.Sub(lo)
				lo, hi = a, b
			} else if b.After(hi) {
				hi = b
			}
		}
		covered += hi.Sub(lo)
		self[i] = s.End.Sub(s.Start) - covered
	}
	return self
}

// spanStat summarises the spans of one name.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (l *spanLog) stats() []spanStat {
	if l == nil {
		return nil
	}
	self := l.selfTimes()
	idx := map[string]int{}
	var out []spanStat
	for i, s := range l.spans {
		j, ok := idx[s.Name]
		if !ok {
			j = len(out)
			idx[s.Name] = j
			out = append(out, spanStat{Name: s.Name})
		}
		out[j].Count++
		out[j].TotalMS += ms(s.End.Sub(s.Start))
		out[j].SelfMS += ms(self[i])
	}
	return out
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing,
// Perfetto), times in microseconds from the first span.
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	if l == nil || len(l.spans) == 0 {
		return nil
	}
	epoch := l.spans[0].Start
	events := make([]event, len(l.spans))
	for i, s := range l.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", PID: 1, TID: s.Lane,
			TS:   float64(s.Start.Sub(epoch).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": i + 1, "parent": s.Parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

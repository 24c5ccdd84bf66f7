package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// tracer keeps spans in memory: name, start, end, parent span and the
// unit of work (campaign/iteration or pass/class) they belong to. Self
// times are derived from the spans after the run; --spans writes them
// out. A nil *tracer records nothing, so the same replay code runs
// traced and untraced.
type tracer struct {
	base  time.Time
	spans []span
}

type span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for a root
	Unit   int64  `json:"unit"`   // campaign<<32 | iteration, or pass<<32 | class
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int32, unit int64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Unit: unit, Start: int64(time.Since(t.base))})
	return int32(len(t.spans) - 1)
}

// end closes span i.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.base))
}

// selfTimes sums, per span name, each span's duration minus the part
// its direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
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

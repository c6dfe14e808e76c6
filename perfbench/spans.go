package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed stage: name, start and end in nanoseconds since the
// recorder started, the parent span's index (-1 for a root) and the run or
// request it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
}

// spans keeps every span in memory until write. A nil *spans records
// nothing, so untraced code paths share the traced ones.
type spans struct {
	t0   time.Time
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span and returns its index.
func (s *spans) begin(name string, parent, run int) int {
	if s == nil {
		return -1
	}
	s.list = append(s.list, span{Name: name, Start: int64(time.Since(s.t0)), Parent: parent, Run: run})
	return len(s.list) - 1
}

// end closes span i.
func (s *spans) end(i int) {
	if s == nil || i < 0 {
		return
	}
	s.list[i].End = int64(time.Since(s.t0))
}

// write stores the spans as JSON lines.
func (s *spans) write(path string) error {
	if s == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range s.list {
		if err := enc.Encode(&s.list[i]); err != nil {
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

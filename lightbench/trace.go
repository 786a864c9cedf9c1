package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public surface. Parent is the
// index of the enclosing span, -1 for a root; Req groups the spans of
// one request or batch call.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Req     int64  `json:"req"`
}

// tracer keeps spans in memory for the whole run; write dumps them at
// the end. A nil tracer records nothing, so untraced phases pass nil.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its index (-1 on a nil tracer).
func (t *tracer) add(name string, parent int, req int64, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Parent: parent, Req: req,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
	})
	return len(t.spans) - 1
}

// selfTimes returns, for every span with the given name, its duration
// minus the part of its interval that its child spans cover.
func (t *tracer) selfTimes(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	var out []time.Duration
	for i, s := range t.spans {
		if s.Name != name {
			continue
		}
		ivs := children[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered int64
		cur := [2]int64{-1, -1}
		for _, iv := range ivs {
			iv[0], iv[1] = max(iv[0], s.StartNS), min(iv[1], s.EndNS)
			if iv[1] <= iv[0] {
				continue
			}
			if iv[0] > cur[1] {
				covered += cur[1] - cur[0]
				cur = iv
			} else {
				cur[1] = max(cur[1], iv[1])
			}
		}
		covered += cur[1] - cur[0]
		out = append(out, time.Duration(s.EndNS-s.StartNS-covered))
	}
	return out
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// medianMS is the median of durations in milliseconds.
func medianMS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return median(xs)
}

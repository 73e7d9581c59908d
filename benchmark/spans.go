package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the span that caused
// it (-1 for a root); Req identifies the client request a live span
// belongs to ("<connection>/<sequence>"), so one request's spans share
// an identifier.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Req    string `json:"req,omitempty"`
}

// maxSpans bounds the span file: a figure lap makes a few hundred
// thousand layer calls, and the file is for reading one lap's shape,
// not for totals (those are accumulated separately, over every call).
const maxSpans = 50000

// spanLog keeps spans in memory until the benchmark ends. A nil log
// records nothing, which is how the timed passes run.
type spanLog struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// open starts a span whose end is not known yet (a lap, a run) and
// returns its id for children to name as parent; -1 once the log is
// full.
func (l *spanLog) open(name string, parent int) int {
	return l.add(name, parent, time.Now(), time.Time{}, "")
}

func (l *spanLog) close(id int) {
	if l == nil || id < 0 {
		return
	}
	end := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id].End = end
	l.mu.Unlock()
}

// add records a finished call.
func (l *spanLog) add(name string, parent int, start, end time.Time, req string) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		l.dropped++
		return -1
	}
	s := span{ID: len(l.spans), Parent: parent, Name: name, Start: start.Sub(l.t0).Nanoseconds(), Req: req}
	if !end.IsZero() {
		s.End = end.Sub(l.t0).Nanoseconds()
	}
	l.spans = append(l.spans, s)
	return s.ID
}

// write stores the spans as benchmark/out/trace-<workload>.json.
func (l *spanLog) write(dir, workload string) (string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Kept     int    `json:"spans_kept"`
		Dropped  int    `json:"spans_dropped"`
		Spans    []span `json:"spans"`
	}{workload, len(l.spans), l.dropped, l.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

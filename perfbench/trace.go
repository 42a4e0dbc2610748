package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one benchmark-side call into a layer.
type span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent,omitempty"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Job     string  `json:"job,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a started span; end closes it.
type openSpan struct {
	t *tracer
	i int
}

func (t *tracer) start(name string, parent int64, job string) *openSpan {
	if t == nil {
		return nil
	}
	now := float64(time.Since(t.t0)) / float64(time.Microsecond)
	t.mu.Lock()
	defer t.mu.Unlock()
	i := len(t.spans)
	t.spans = append(t.spans, span{ID: int64(i + 1), Parent: parent, Name: name, StartUS: now, Job: job})
	return &openSpan{t: t, i: i}
}

// id returns the span's identifier (0 for the nil span).
func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return int64(o.i + 1)
}

// end closes the span, naming its job when job is not empty.
func (o *openSpan) end(job string) {
	if o == nil {
		return
	}
	now := float64(time.Since(o.t.t0)) / float64(time.Microsecond)
	o.t.mu.Lock()
	defer o.t.mu.Unlock()
	sp := &o.t.spans[o.i]
	sp.EndUS = now
	if job != "" {
		sp.Job = job
	}
}

// write stores the spans as NDJSON.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package server

import (
	"sync"
	"time"

	"skandium/internal/event"
)

// eventRecord is one job event rendered for the NDJSON stream. Times are
// milliseconds since the job start, so clients need no clock correlation.
type eventRecord struct {
	Seq    int64   `json:"seq"`
	TMS    float64 `json:"t_ms"`
	Ev     string  `json:"ev"` // the paper's ∆@notation, e.g. "map@as(3)"
	Kind   string  `json:"kind"`
	When   string  `json:"when"`
	Where  string  `json:"where"`
	Index  int64   `json:"index"`
	Parent int64   `json:"parent"`
	Card   int     `json:"card,omitempty"`
	Branch int     `json:"branch,omitempty"`
	Iter   int     `json:"iter,omitempty"`
	Worker int     `json:"worker"`
	Err    string  `json:"err,omitempty"`
	// Truncated marks the synthetic marker record a follower receives when
	// the ring dropped records between its cursor and the oldest retained
	// one; it holds the number of records lost to the reader.
	Truncated int64 `json:"truncated,omitempty"`
}

// eventLog is a bounded ring of a job's events with follow support: the
// job's listener appends from worker goroutines (it must stay cheap — no JSON
// here), NDJSON handlers snapshot and wait for growth.
type eventLog struct {
	mu      sync.Mutex
	start   time.Time
	base    int64 // sequence number of buf[0]
	buf     []eventRecord
	cap     int
	dropped int64 // records pushed out of the ring (memory stays bounded)
	closed  bool
	changed chan struct{} // replaced on every append/close; closed to wake waiters
}

func newEventLog(capacity int, start time.Time) *eventLog {
	if capacity < 1 {
		capacity = 1
	}
	return &eventLog{start: start, cap: capacity, changed: make(chan struct{})}
}

// record renders one stream event into the ring.
func (l *eventLog) record(e *event.Event) {
	rec := eventRecord{
		TMS:    float64(e.Time.Sub(l.start)) / float64(time.Millisecond),
		Ev:     e.String(),
		Kind:   e.Node.Kind().String(),
		When:   e.When.String(),
		Where:  e.Where.String(),
		Index:  e.Index,
		Parent: e.Parent,
		Card:   e.Card,
		Branch: e.Branch,
		Iter:   e.Iter,
		Worker: e.Worker,
	}
	if e.Err != nil {
		rec.Err = e.Err.Error()
	}
	l.append(rec)
}

func (l *eventLog) append(rec eventRecord) {
	l.mu.Lock()
	rec.Seq = l.base + int64(len(l.buf))
	l.buf = append(l.buf, rec)
	if len(l.buf) > l.cap {
		drop := len(l.buf) - l.cap
		l.buf = append(l.buf[:0], l.buf[drop:]...)
		l.base += int64(drop)
		l.dropped += int64(drop)
	}
	ch := l.changed
	l.changed = make(chan struct{})
	l.mu.Unlock()
	close(ch)
}

// close marks the log complete (job finished) and wakes all followers.
func (l *eventLog) close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	ch := l.changed
	l.changed = make(chan struct{})
	l.mu.Unlock()
	close(ch)
}

// snapshot returns the records with Seq >= from, the next cursor, whether
// the log is complete, how many records between from and the oldest
// retained one were lost to the ring (the caller surfaces those with an
// explicit truncation marker), and a channel that closes on the next change.
func (l *eventLog) snapshot(from int64) (recs []eventRecord, next int64, done bool, lost int64, changed <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.base {
		lost = l.base - from // older records fell off the ring
		from = l.base
	}
	if idx := from - l.base; idx < int64(len(l.buf)) {
		recs = append(recs, l.buf[idx:]...)
	}
	return recs, l.base + int64(len(l.buf)), l.closed, lost, l.changed
}

// len returns the number of events ever appended.
func (l *eventLog) len() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base + int64(len(l.buf))
}

// droppedCount returns how many records the ring has evicted so far.
func (l *eventLog) droppedCount() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

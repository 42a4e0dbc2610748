package server

import (
	"math"
	"sync"
	"time"

	"skandium/internal/event"
	"skandium/internal/skel"
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

// eventEntry is one ring slot: a stream event's raw fields, rendered into an
// eventRecord only when read. Rare records — synthetic ones, failed-muscle
// events, and events whose values do not fit the narrowed fields — are
// rendered eagerly and kept behind note instead; stream events hold no
// string and no pointer.
type eventEntry struct {
	at                         time.Duration // since the job start
	index, parent              int64
	card, branch, iter, worker int32
	kind, when, where          uint8
	note                       *eventRecord
}

// eventLog is a bounded ring of a job's events with follow support: the
// job's listener appends from worker goroutines (it must stay cheap — no
// formatting, no allocation), NDJSON handlers snapshot and wait for growth.
type eventLog struct {
	mu      sync.Mutex
	start   time.Time
	buf     []eventEntry // grows to cap, then wraps: buf[head] is the oldest
	head    int
	next    int64 // sequence number of the next record
	cap     int
	closed  bool
	changed chan struct{} // made by a waiting follower; closed on the next append/close
}

// closedChan is what wait returns when there is nothing to wait for.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

func newEventLog(capacity int, start time.Time) *eventLog {
	if capacity < 1 {
		capacity = 1
	}
	return &eventLog{start: start, cap: capacity}
}

// record stores one stream event in the ring.
func (l *eventLog) record(e *event.Event) {
	kind, at := e.Node.Kind(), e.Time.Sub(l.start)
	if e.Err != nil || !fitsUint8(int64(kind)) || !fitsUint8(int64(e.When)) || !fitsUint8(int64(e.Where)) ||
		!fitsInt32(e.Card) || !fitsInt32(e.Branch) || !fitsInt32(e.Iter) || !fitsInt32(e.Worker) {
		rec := renderEvent(at, kind, e.When, e.Where, e.Index, e.Parent, e.Card, e.Branch, e.Iter, e.Worker)
		if e.Err != nil {
			rec.Err = e.Err.Error()
		}
		l.push(eventEntry{note: &rec})
		return
	}
	l.push(eventEntry{
		at: at, index: e.Index, parent: e.Parent,
		card: int32(e.Card), branch: int32(e.Branch), iter: int32(e.Iter), worker: int32(e.Worker),
		kind: uint8(kind), when: uint8(e.When), where: uint8(e.Where),
	})
}

func fitsUint8(v int64) bool { return v >= 0 && v <= math.MaxUint8 }
func fitsInt32(v int) bool   { return v >= math.MinInt32 && v <= math.MaxInt32 }

// note appends a synthetic record (admission, cluster, policy fallback)
// that happened at time at; rec's Seq and TMS are filled in here.
func (l *eventLog) note(at time.Time, rec eventRecord) {
	rec.TMS = float64(at.Sub(l.start)) / float64(time.Millisecond)
	l.push(eventEntry{note: &rec})
}

// renderEvent builds the NDJSON record of a stream event; its Seq is left
// to the caller.
func renderEvent(at time.Duration, kind skel.Kind, when event.When, where event.Where, index, parent int64, card, branch, iter, worker int) eventRecord {
	return eventRecord{
		TMS:    float64(at) / float64(time.Millisecond),
		Ev:     event.Notation(kind, when, where, index),
		Kind:   kind.String(),
		When:   when.String(),
		Where:  where.String(),
		Index:  index,
		Parent: parent,
		Card:   card,
		Branch: branch,
		Iter:   iter,
		Worker: worker,
	}
}

// render returns the entry's NDJSON record with sequence number seq.
func (en *eventEntry) render(seq int64) eventRecord {
	var rec eventRecord
	if en.note != nil {
		rec = *en.note
	} else {
		rec = renderEvent(en.at, skel.Kind(en.kind), event.When(en.when), event.Where(en.where), en.index, en.parent,
			int(en.card), int(en.branch), int(en.iter), int(en.worker))
	}
	rec.Seq = seq
	return rec
}

// push appends one entry, overwriting the oldest once the ring is full, and
// wakes any waiting follower.
func (l *eventLog) push(en eventEntry) {
	l.mu.Lock()
	if len(l.buf) < l.cap {
		if len(l.buf) == cap(l.buf) {
			// Double, but never past the ring's capacity.
			grown := make([]eventEntry, len(l.buf), min(max(2*len(l.buf), 8), l.cap))
			copy(grown, l.buf)
			l.buf = grown
		}
		l.buf = append(l.buf, en)
	} else {
		l.buf[l.head] = en
		if l.head++; l.head == len(l.buf) {
			l.head = 0
		}
	}
	l.next++
	ch := l.changed
	l.changed = nil
	l.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// close marks the log complete (job finished), trims the ring to its exact
// length in sequence order, and wakes all followers.
func (l *eventLog) close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	if l.head != 0 || cap(l.buf) != len(l.buf) {
		buf := make([]eventEntry, len(l.buf))
		copy(buf, l.buf[l.head:])
		copy(buf[len(l.buf)-l.head:], l.buf[:l.head])
		l.buf, l.head = buf, 0
	}
	ch := l.changed
	l.changed = nil
	l.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// snapshot returns the records with Seq >= from, the next cursor, whether
// the log is complete, and how many records between from and the oldest
// retained one were lost to the ring (the caller surfaces those with an
// explicit truncation marker). Entries are copied under the lock and
// rendered outside it.
func (l *eventLog) snapshot(from int64) (recs []eventRecord, next int64, done bool, lost int64) {
	l.mu.Lock()
	base := l.next - int64(len(l.buf))
	if from < base {
		lost = base - from // older records fell off the ring
		from = base
	}
	var ens []eventEntry
	if idx := from - base; idx < int64(len(l.buf)) {
		ens = make([]eventEntry, 0, int64(len(l.buf))-idx)
		for i := int(idx); i < len(l.buf); i++ {
			ens = append(ens, l.buf[(l.head+i)%len(l.buf)])
		}
	}
	next, done = l.next, l.closed
	l.mu.Unlock()
	if len(ens) > 0 {
		recs = make([]eventRecord, len(ens))
		for i := range ens {
			recs[i] = ens[i].render(from + int64(i))
		}
	}
	return recs, next, done, lost
}

// wait returns a channel that is closed once the log holds records past
// next or is closed. The channel is made only here, when a follower is
// about to block, so appends without followers allocate nothing.
func (l *eventLog) wait(next int64) <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.next != next {
		return closedChan
	}
	if l.changed == nil {
		l.changed = make(chan struct{})
	}
	return l.changed
}

// len returns the number of events ever appended.
func (l *eventLog) len() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// droppedCount returns how many records the ring has evicted so far.
func (l *eventLog) droppedCount() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - int64(len(l.buf))
}

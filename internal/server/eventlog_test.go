package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"testing"
	"time"
	"unsafe"

	"skandium/internal/event"
	"skandium/internal/muscle"
	"skandium/internal/remote"
	"skandium/internal/skel"
)

// eagerRecord is how the ring rendered a stream event before it kept raw
// fields: every field formatted at record time. It is the oracle the lazy
// rendering must match byte for byte.
func eagerRecord(e *event.Event, start time.Time) eventRecord {
	rec := eventRecord{
		TMS:    float64(e.Time.Sub(start)) / float64(time.Millisecond),
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
	return rec
}

// oracleLog is the naive model of eventLog: an unbounded slice of eagerly
// rendered records, of which the last cap are retained.
type oracleLog struct {
	cap    int
	recs   []eventRecord
	closed bool
}

func (m *oracleLog) add(rec eventRecord) {
	rec.Seq = int64(len(m.recs))
	m.recs = append(m.recs, rec)
}

func (m *oracleLog) dropped() int64 { return int64(max(len(m.recs)-m.cap, 0)) }

func (m *oracleLog) snapshot(from int64) (recs []eventRecord, next int64, done bool, lost int64) {
	base := m.dropped()
	if from < base {
		lost, from = base-from, base
	}
	if from < int64(len(m.recs)) {
		recs = m.recs[from:]
	}
	return recs, int64(len(m.recs)), m.closed, lost
}

// ndjson renders the /events body for a read from cursor from: the
// truncation marker when records were lost, then the records.
func (m *oracleLog) ndjson(from int64) string {
	recs, next, _, lost := m.snapshot(from)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if lost > 0 {
		_ = enc.Encode(eventRecord{Seq: next - int64(len(recs)), Ev: "truncated", Truncated: lost})
	}
	for _, r := range recs {
		_ = enc.Encode(r)
	}
	return buf.String()
}

// eventNodes returns one node of every skeleton kind.
func eventNodes() []*skel.Node {
	fe := muscle.NewExecute("fe", func(p any) (any, error) { return p, nil })
	fs := muscle.NewSplit("fs", func(p any) ([]any, error) { return nil, nil })
	fm := muscle.NewMerge("fm", func(ps []any) (any, error) { return nil, nil })
	fc := muscle.NewCondition("fc", func(p any) (bool, error) { return false, nil })
	seq := skel.NewSeq(fe)
	return []*skel.Node{
		seq, skel.NewFarm(seq), skel.NewPipe(seq, seq), skel.NewWhile(fc, seq),
		skel.NewIf(fc, seq, seq), skel.NewFor(3, seq), skel.NewMap(fs, seq, fm),
		skel.NewFork(fs, []*skel.Node{seq, seq}, fm), skel.NewDaC(fc, fs, seq, fm),
	}
}

// randomEvent draws a stream event: errors set and unset, root and nested
// parents, worker -1, non-zero Card/Branch/Iter, and now and then a value
// that does not fit the ring's narrowed fields.
func randomEvent(rng *rand.Rand, nodes []*skel.Node, start time.Time, index int64) *event.Event {
	e := &event.Event{
		Node:   nodes[rng.Intn(len(nodes))],
		Index:  index,
		Parent: event.NoParent,
		When:   event.When(rng.Intn(2)),
		Where:  event.Where(rng.Intn(int(event.Fault) + 1)),
		Time:   start.Add(time.Duration(rng.Int63n(int64(time.Second))) - time.Millisecond),
		Worker: rng.Intn(8) - 1,
	}
	if rng.Intn(3) > 0 {
		e.Parent = rng.Int63n(index + 1)
	}
	if rng.Intn(2) == 0 {
		e.Card, e.Branch, e.Iter = rng.Intn(64), rng.Intn(16), rng.Intn(16)
	}
	if rng.Intn(8) == 0 {
		e.Err = fmt.Errorf("muscle %d: %w", index, errors.New(`boom "quoted" ∆`))
	}
	switch rng.Intn(24) {
	case 0:
		e.Card = math.MaxInt32 + 1
	case 1:
		e.Iter = math.MinInt32 - 1
	case 2:
		e.Where = event.Where(9) // out of range: empty code, "Where(9)"
	case 3:
		e.When = event.When(300)
	case 4:
		e.Worker = math.MaxInt64
	}
	return e
}

// oracleSynthetic is the eager form of every synthetic record the daemon
// appends, in the order fillSynthetic produces them.
func oracleSynthetic(m *oracleLog, start, at time.Time) {
	tms := float64(at.Sub(start)) / float64(time.Millisecond)
	for _, kind := range []string{"brownout-on", "brownout-off"} {
		m.add(eventRecord{TMS: tms, Ev: "admission@" + kind, Kind: "admission", When: kind, Where: "admission"})
	}
	m.add(eventRecord{TMS: tms, Ev: "cluster@node-down(w1:9 healthy→down cause=refused)",
		Kind: "cluster", When: "node-down", Where: "w1:9", Err: "dial: connection refused"})
	m.add(eventRecord{TMS: tms, Ev: "cluster@node-up(w1:9 down→probation)",
		Kind: "cluster", When: "node-up", Where: "w1:9"})
	m.add(eventRecord{TMS: tms, Ev: "cluster@node-state(w1:9 healthy→suspect cause=timeout)",
		Kind: "cluster", When: "node-state", Where: "w1:9", Err: "i/o timeout"})
	m.add(eventRecord{TMS: tms, Ev: "cluster@node-state(w1:9)", Kind: "cluster", When: "node-state", Where: "w1:9"})
	m.add(eventRecord{TMS: tms, Ev: "cluster@route(sleepgrid tenant=alpha)", Kind: "cluster", When: "route", Where: "cluster"})
	m.add(eventRecord{TMS: tms, Ev: `policy "future" unknown to this binary: falling back to the paper rule`})
}

// fillSynthetic appends every synthetic record kind to j's log at time at,
// through the daemon's own brownout and node-event hooks where it can.
func fillSynthetic(srv *Server, j *job, at time.Time) {
	srv.onBrownout(true, at)
	srv.onBrownout(false, at)
	srv.mu.Lock()
	srv.remoteJobs[j.id] = j
	srv.mu.Unlock()
	for _, ev := range []remote.NodeEvent{
		{Addr: "w1:9", From: remote.StateHealthy, To: remote.StateDown, Time: at, Err: "dial: connection refused", Cause: "refused"},
		{Addr: "w1:9", From: remote.StateDown, To: remote.StateProbation, Time: at, Up: true},
		{Addr: "w1:9", From: remote.StateHealthy, To: remote.StateSuspect, Time: at, Err: "i/o timeout", Cause: "timeout"},
		{Addr: "w1:9", From: remote.StateHealthy, To: remote.StateHealthy, Time: at, Up: true},
	} {
		srv.onNodeEvent(ev)
	}
	srv.mu.Lock()
	delete(srv.remoteJobs, j.id)
	srv.mu.Unlock()
	// The cluster@route and policy-fallback records, as startRemote and
	// start append them.
	j.log.note(at, eventRecord{
		Ev:   fmt.Sprintf("cluster@route(%s tenant=%s)", "sleepgrid", "alpha"),
		Kind: "cluster", When: "route", Where: "cluster",
	})
	j.log.note(at, eventRecord{
		Ev: fmt.Sprintf("policy %q unknown to this binary: falling back to the paper rule", "future"),
	})
}

// installJob registers a running job with a fresh log under id, so the
// handler and the daemon's hooks see it.
func installJob(srv *Server, id string, capacity int, start time.Time) *job {
	j := &job{id: id, state: stateRunning, created: start, log: newEventLog(capacity, start)}
	srv.mu.Lock()
	srv.jobs[id] = j
	srv.order = append(srv.order, id)
	srv.mu.Unlock()
	return j
}

// finishJob closes j's log and marks it done, so the daemon's hooks no
// longer append to it.
func finishJob(j *job) {
	j.mu.Lock()
	j.state, j.out = stateDone, &outcome{}
	j.mu.Unlock()
	j.log.close()
}

// fillStream records n seeded stream events into j's log and the model.
func fillStream(j *job, m *oracleLog, rng *rand.Rand, nodes []*skel.Node, n int) {
	for i := 0; i < n; i++ {
		e := randomEvent(rng, nodes, j.log.start, int64(len(m.recs)))
		j.log.record(e)
		m.add(eagerRecord(e, j.log.start))
	}
}

func mustMarshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestEventLogRenderMatchesEager: every record the ring renders on read
// marshals to the same JSON as the eager oracle, for a seeded mix of
// stream events and every synthetic record kind.
func TestEventLogRenderMatchesEager(t *testing.T) {
	srv := New(Config{Budget: 2})
	defer srv.Close()
	start := time.Unix(1_700_000_000, 12345)
	j := installJob(srv, "job-diff", 4096, start)
	m := &oracleLog{cap: 4096}
	rng := rand.New(rand.NewSource(14))
	nodes := eventNodes()
	fillStream(j, m, rng, nodes, 1000)
	at := start.Add(1234567 * time.Nanosecond)
	fillSynthetic(srv, j, at)
	oracleSynthetic(m, start, at)
	fillStream(j, m, rng, nodes, 1000)
	finishJob(j)
	m.closed = true

	recs, next, done, lost := j.log.snapshot(0)
	wantRecs, wantNext, _, _ := m.snapshot(0)
	if next != wantNext || !done || lost != 0 || len(recs) != len(wantRecs) {
		t.Fatalf("snapshot: next=%d done=%v lost=%d n=%d, want next=%d done lost=0 n=%d",
			next, done, lost, len(recs), wantNext, len(wantRecs))
	}
	for i := range recs {
		if got, want := mustMarshal(t, recs[i]), mustMarshal(t, wantRecs[i]); got != want {
			t.Fatalf("record %d:\n got %s\nwant %s", i, got, want)
		}
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestEventsEndpointMatchesEager: through the real handler, /events plain,
// with ?from=, with ?follow=1 and on a truncated ring yields the same
// NDJSON lines as the eager oracle.
func TestEventsEndpointMatchesEager(t *testing.T) {
	srv, ts := newTestDaemon(t, Config{Budget: 2})
	start := time.Unix(1_700_000_000, 0)
	rng := rand.New(rand.NewSource(7))
	nodes := eventNodes()

	full := installJob(srv, "job-full", 1024, start)
	fm := &oracleLog{cap: 1024}
	fillStream(full, fm, rng, nodes, 300)
	fillSynthetic(srv, full, start.Add(time.Millisecond))
	oracleSynthetic(fm, start, start.Add(time.Millisecond))
	fillStream(full, fm, rng, nodes, 300)
	finishJob(full)
	fm.closed = true

	small := installJob(srv, "job-small", 16, start)
	sm := &oracleLog{cap: 16}
	fillStream(small, sm, rng, nodes, 200)
	fillSynthetic(srv, small, start.Add(2*time.Millisecond))
	oracleSynthetic(sm, start, start.Add(2*time.Millisecond))
	fillStream(small, sm, rng, nodes, 5)
	// The open ring has wrapped: read it before close linearizes it.
	if got, want := getBody(t, ts.URL+"/jobs/job-small/events"), sm.ndjson(0); got != want {
		t.Fatalf("wrapped open ring: body differs from the oracle\n got %.400s\nwant %.400s", got, want)
	}
	finishJob(small)
	sm.closed = true

	for _, tc := range []struct {
		id   string
		m    *oracleLog
		from int64
	}{
		{"job-full", fm, 0}, {"job-full", fm, 250}, {"job-full", fm, 1000},
		{"job-small", sm, 0}, {"job-small", sm, 100}, {"job-small", sm, 200}, {"job-small", sm, 209},
	} {
		url := fmt.Sprintf("%s/jobs/%s/events", ts.URL, tc.id)
		if tc.from > 0 {
			url += fmt.Sprintf("?from=%d", tc.from)
		}
		if got, want := getBody(t, url), tc.m.ndjson(tc.from); got != want {
			t.Fatalf("%s: body differs from the oracle\n got %.400s\nwant %.400s", url, got, want)
		}
	}

	// Follow a live job from its first event to its close while events
	// keep arriving in batches.
	live := installJob(srv, "job-live", 1024, start)
	lm := &oracleLog{cap: 1024}
	lines := make(chan string, 1024)
	go func() {
		// The handler sends its headers with the first records, so the
		// request is made off the test goroutine.
		defer close(lines)
		resp, err := http.Get(ts.URL + "/jobs/job-live/events?follow=1")
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text() + "\n"
		}
	}()
	var got bytes.Buffer
	for batch := 0; batch < 5; batch++ {
		fillStream(live, lm, rng, nodes, 40)
		if batch == 2 {
			fillSynthetic(srv, live, start.Add(3*time.Millisecond))
			oracleSynthetic(lm, start, start.Add(3*time.Millisecond))
		}
		// Wait until the follower has seen this batch, so the stream
		// really follows rather than reading the finished log once.
		for bytes.Count(got.Bytes(), []byte("\n")) < len(lm.recs) {
			l, ok := <-lines
			if !ok {
				t.Fatalf("follow stream ended after %d of %d records", bytes.Count(got.Bytes(), []byte("\n")), len(lm.recs))
			}
			got.WriteString(l)
		}
	}
	finishJob(live)
	lm.closed = true
	for l := range lines {
		got.WriteString(l)
	}
	if want := lm.ndjson(0); got.String() != want {
		t.Fatalf("follow: body differs from the oracle\n got %.400s\nwant %.400s", got.String(), want)
	}
}

// TestEventLogRecordAllocs: recording a stream event with no follower
// allocates nothing, on a growing ring and on a full one; a ring slot takes
// at most 64 bytes; a closed log is trimmed to its exact length and holds
// no wake channel.
func TestEventLogRecordAllocs(t *testing.T) {
	if sz := unsafe.Sizeof(eventEntry{}); sz > 64 {
		t.Errorf("eventEntry takes %d bytes, want at most 64", sz)
	}
	start := time.Now()
	e := &event.Event{Node: eventNodes()[6], When: event.After, Where: event.Split,
		Index: 3, Parent: 1, Card: 4, Worker: 2, Time: start.Add(time.Millisecond)}

	growing := newEventLog(1<<16, start)
	if n := testing.AllocsPerRun(1000, func() { growing.record(e) }); n != 0 {
		t.Errorf("record on a growing ring: %v allocs, want 0", n)
	}
	full := newEventLog(64, start)
	for i := 0; i < 64; i++ {
		full.record(e)
	}
	if n := testing.AllocsPerRun(1000, func() { full.record(e) }); n != 0 {
		t.Errorf("record on a full ring: %v allocs, want 0", n)
	}

	for _, l := range []*eventLog{growing, full, newEventLog(8, start)} {
		// A follower that waited and was woken leaves no channel behind.
		ch := l.wait(l.len())
		l.close()
		<-ch
		if cap(l.buf) != len(l.buf) || l.head != 0 || l.changed != nil {
			t.Errorf("closed log: len %d cap %d head %d changed %v, want an exact, linear buffer and no channel",
				len(l.buf), cap(l.buf), l.head, l.changed != nil)
		}
	}
}

// BenchmarkEventLogAppendFull records into a full ring of the default
// capacity: each append overwrites the oldest slot in O(1).
func BenchmarkEventLogAppendFull(b *testing.B) {
	start := time.Now()
	const capacity = 8192 // Config.EventLog's default
	l := newEventLog(capacity, start)
	e := &event.Event{Node: eventNodes()[6], When: event.After, Where: event.Split,
		Index: 3, Parent: 1, Card: 4, Worker: 2, Time: start.Add(time.Millisecond)}
	for i := 0; i < capacity; i++ {
		l.record(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.record(e)
	}
}

// FuzzEventLog drives an eventLog and the unbounded oracle with the same
// random sequence of stream events, synthetic records, closes and
// snapshots, and checks that they agree on every returned record, cursor,
// loss count, completion flag and eviction count, and that followers are
// woken exactly when the log changes.
func FuzzEventLog(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 3, 0})
	f.Add([]byte{1, 0, 1, 0, 2, 0, 3, 3, 0, 3, 2})
	f.Add([]byte{1, 0, 4, 0, 12, 3, 0, 2, 7})
	f.Add([]byte{2, 0, 1, 0, 9, 0, 17, 3, 1, 3, 0, 2, 0, 3, 0})
	f.Add([]byte{7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 2, 1, 0, 6, 3, 0, 2, 3, 1})
	f.Add([]byte{5, 3, 9, 0, 255, 0, 254, 1, 3, 3, 5, 2, 0, 1, 3, 200, 3, 0})
	nodes := eventNodes()
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		capacity := int(ops[0]%8) + 1
		start := time.Unix(1_700_000_000, 0)
		l := newEventLog(capacity, start)
		m := &oracleLog{cap: capacity}
		var waiting []<-chan struct{}
		for i := 1; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			changed := true
			switch op % 4 {
			case 0:
				e := &event.Event{
					Node: nodes[int(arg)%len(nodes)], Index: int64(i), Parent: int64(arg) - 1,
					When: event.When(arg >> 7), Where: event.Where(arg >> 4 % 9),
					Card: int(arg), Branch: int(arg >> 2), Iter: int(arg >> 3), Worker: int(arg%5) - 1,
					Time: start.Add(time.Duration(arg) * 1111 * time.Microsecond),
				}
				if arg%7 == 0 {
					e.Err = fmt.Errorf("fault %d", arg)
				}
				if arg%11 == 0 {
					e.Card = math.MaxInt32 + int(arg)
				}
				l.record(e)
				m.add(eagerRecord(e, start))
			case 1:
				at := start.Add(time.Duration(arg) * time.Millisecond)
				l.note(at, eventRecord{Ev: fmt.Sprintf("admission@%d", arg), Kind: "admission"})
				m.add(eventRecord{TMS: float64(at.Sub(start)) / float64(time.Millisecond),
					Ev: fmt.Sprintf("admission@%d", arg), Kind: "admission"})
			case 2:
				changed = !m.closed
				l.close()
				m.closed = true
				// Records appended after the first close may wrap or grow
				// the ring again; only the first close trims.
				if changed && (cap(l.buf) != len(l.buf) || l.head != 0 || l.changed != nil) {
					t.Fatalf("closed log: len %d cap %d head %d, changed %v", len(l.buf), cap(l.buf), l.head, l.changed != nil)
				}
			case 3:
				changed = false
				from := int64(arg) % (int64(len(m.recs)) + 3)
				recs, next, done, lost := l.snapshot(from)
				wantRecs, wantNext, wantDone, wantLost := m.snapshot(from)
				if next != wantNext || done != wantDone || lost != wantLost || len(recs) != len(wantRecs) {
					t.Fatalf("snapshot(%d) = next %d done %v lost %d n %d, want next %d done %v lost %d n %d",
						from, next, done, lost, len(recs), wantNext, wantDone, wantLost, len(wantRecs))
				}
				for k := range recs {
					if got, want := mustMarshal(t, recs[k]), mustMarshal(t, wantRecs[k]); got != want {
						t.Fatalf("snapshot(%d)[%d]:\n got %s\nwant %s", from, k, got, want)
					}
				}
				// A cursor the log has already moved past must not block:
				// records landed between the follower's read and its wait.
				if next > 0 {
					select {
					case <-l.wait(next - 1):
					default:
						t.Fatalf("wait(%d) blocks on a log at %d", next-1, next)
					}
				}
				ch := l.wait(next)
				select {
				case <-ch:
					if !done {
						t.Fatalf("wait(%d) on an unchanged open log is already closed", next)
					}
				default:
					if done {
						t.Fatalf("wait(%d) on a closed log blocks", next)
					}
					waiting = append(waiting, ch)
				}
			}
			if changed {
				for _, ch := range waiting {
					select {
					case <-ch:
					default:
						t.Fatalf("op %d changed the log but left a follower waiting", i)
					}
				}
				waiting = waiting[:0]
			}
			if got, want := l.droppedCount(), m.dropped(); got != want {
				t.Fatalf("dropped = %d, want %d", got, want)
			}
			if got, want := l.len(), int64(len(m.recs)); got != want {
				t.Fatalf("len = %d, want %d", got, want)
			}
		}
	})
}

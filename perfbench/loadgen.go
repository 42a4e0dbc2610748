package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync"
	"time"
)

// maxConns is how many connections the generator opens to the daemon: the
// machine's two cores.
const maxConns = 2

// jobView is the part of GET /jobs/{id} the benchmark reads.
type jobView struct {
	ID            string  `json:"id"`
	State         string  `json:"state"`
	Result        string  `json:"result"`
	Error         string  `json:"error"`
	Analyses      int     `json:"analyses"`
	Decisions     int     `json:"decisions"`
	Events        int64   `json:"events"`
	EventsDropped int64   `json:"events_dropped"`
	TasksRun      uint64  `json:"tasks_run"`
	BusyMS        float64 `json:"busy_ms"`
	CreatedMS     float64 `json:"created_ms"`
	StartedMS     float64 `json:"started_ms"`
	FinishedMS    float64 `json:"finished_ms"`
}

// healthz is the part of GET /healthz the benchmark reads.
type healthz struct {
	Status  string             `json:"status"`
	Jobs    map[string]int     `json:"jobs"`
	Queue   int                `json:"queue"`
	Shed    map[string]float64 `json:"shed"`
	Journal map[string]float64 `json:"journal"`
}

func (h healthz) live() int { return h.Jobs["queued"] + h.Jobs["running"] }

func (h healthz) sheds() float64 {
	t := 0.0
	for _, n := range h.Shed {
		t += n
	}
	return t
}

// sample is one scheduled submission and everything observed about it.
type sample struct {
	arrival
	dueAt time.Time
	sent  time.Time // connection obtained: the request leaves
	acked time.Time
	id    string
	err   error
	view  *jobView
}

func (s *sample) submitMS() float64 { return ms(s.acked.Sub(s.dueAt)) }
func (s *sample) lagMS() float64    { return ms(s.sent.Sub(s.dueAt)) }

// e2eMS is the submit latency plus the daemon's created→finished time.
func (s *sample) e2eMS() float64 { return s.submitMS() + s.view.FinishedMS - s.view.CreatedMS }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// readSample is one timed operator read.
type readSample struct {
	kind  string // events | timeline | metrics
	ms    float64
	bytes int
	job   string
	body  []byte // timeline bodies, kept in traced runs for ∫LP dt
}

// client talks to one daemon over at most maxConns connections.
type client struct {
	http *http.Client
	base string
	tr   *tracer // nil when untraced
}

func newClient(addr string, tr *tracer) *client {
	transport := &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		IdleConnTimeout:     time.Minute,
	}
	return &client{http: &http.Client{Transport: transport, Timeout: 30 * time.Second}, base: "http://" + addr, tr: tr}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// submit POSTs one job and records when it left and when the 202 arrived.
func (c *client) submit(ctx context.Context, s *sample) {
	outer := c.tr.start("loadgen.submit", 0, "")
	defer func() { outer.end(s.id) }()
	body, err := json.Marshal(s.req)
	if err != nil {
		s.err = err
		return
	}
	trace := &httptrace.ClientTrace{GotConn: func(httptrace.GotConnInfo) { s.sent = time.Now() }}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, trace), http.MethodPost, c.base+"/jobs", bytes.NewReader(body))
	if err != nil {
		s.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	inner := c.tr.start("server.submit", outer.id(), "")
	resp, err := c.http.Do(req)
	if err != nil {
		inner.end("")
		s.err = err
		return
	}
	var v struct {
		ID string `json:"id"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	s.acked = time.Now()
	inner.end(v.ID)
	switch {
	case resp.StatusCode != http.StatusAccepted:
		s.err = fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	case derr != nil:
		s.err = fmt.Errorf("submit: %w", derr)
	default:
		s.id = v.ID
	}
}

// get GETs path inside a span named after the layer call and returns the
// whole body with the round trip's duration. A status other than 200 is an
// error.
func (c *client) get(ctx context.Context, spanName, path, job string) ([]byte, time.Duration, error) {
	sp := c.tr.start(spanName, 0, job)
	defer sp.end("")
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return body, d, nil
}

// getJSON GETs path and decodes its JSON body into v.
func (c *client) getJSON(ctx context.Context, spanName, path, job string, v any) error {
	body, _, err := c.get(ctx, spanName, path, job)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// timedGet is one operator read.
func (c *client) timedGet(ctx context.Context, kind, path, job string) (readSample, error) {
	body, d, err := c.get(ctx, "server."+kind, path, job)
	if err != nil {
		return readSample{}, err
	}
	r := readSample{kind: kind, ms: ms(d), bytes: len(body), job: job}
	if c.tr != nil && kind == "timeline" {
		r.body = body
	}
	return r, nil
}

func (c *client) healthz(ctx context.Context) (healthz, error) {
	var h healthz
	return h, c.getJSON(ctx, "server.healthz", "/healthz", "", &h)
}

func (c *client) view(ctx context.Context, id string) (*jobView, error) {
	var v jobView
	if err := c.getJSON(ctx, "server.view", "/jobs/"+id, id, &v); err != nil {
		return nil, err
	}
	return &v, nil
}

// phaseResult is one phase of open-loop load.
type phaseResult struct {
	rung    int
	samples []sample
	reads   []readSample
	readErr int
	start   time.Time
}

// runPhase drives one open-loop phase: every arrival is sent at its due
// time whether or not earlier requests have returned (their wait for one
// of the maxConns connections counts against them); selected jobs get their
// events and timeline read after readDelay, and /metrics is scraped at a
// fixed period while submissions are due.
func (b *bench) runPhase(ctx context.Context, c *client, arrivals []arrival) *phaseResult {
	pr := &phaseResult{samples: make([]sample, len(arrivals)), start: time.Now()}
	if len(arrivals) > 0 {
		pr.rung = arrivals[0].rung
	}
	var (
		mu    sync.Mutex
		subWG sync.WaitGroup
		rdWG  sync.WaitGroup
	)
	addRead := func(r readSample, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			pr.readErr++
			return
		}
		pr.reads = append(pr.reads, r)
	}

	stopScrape := make(chan struct{})
	if b.w.scrapeEvery > 0 {
		rdWG.Add(1)
		go b.scrape(ctx, c, stopScrape, &rdWG, addRead)
	}

	for i := range arrivals {
		s := &pr.samples[i]
		s.arrival = arrivals[i]
		s.dueAt = pr.start.Add(s.due)
		if d := time.Until(s.dueAt); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			s.err = ctx.Err()
			continue
		}
		read := i%b.w.readEvery == 0
		subWG.Add(1)
		go func() {
			defer subWG.Done()
			c.submit(ctx, s)
			if !read || s.id == "" {
				return
			}
			id := s.id
			rdWG.Add(1)
			time.AfterFunc(b.w.readDelay, func() {
				defer rdWG.Done()
				addRead(c.timedGet(ctx, "events", "/jobs/"+id+"/events", id))
				addRead(c.timedGet(ctx, "timeline", "/jobs/"+id+"/timeline", id))
			})
		}()
	}
	subWG.Wait()
	close(stopScrape)
	rdWG.Wait()
	return pr
}

// drain waits until the daemon has no queued or running job.
func (b *bench) drain(ctx context.Context, c *client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		h, err := c.healthz(ctx)
		if err == nil && h.live() == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("drain: %w", err)
			}
			return fmt.Errorf("drain: %d jobs still live after %v", h.live(), timeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// collect fetches the view of every accepted job of the phase, over the
// generator's connections.
func (b *bench) collect(ctx context.Context, c *client, pr *phaseResult) {
	next := make(chan *sample)
	var wg sync.WaitGroup
	for i := 0; i < maxConns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				v, err := c.view(ctx, s.id)
				if err != nil {
					s.err = err
					continue
				}
				s.view = v
			}
		}()
	}
	for i := range pr.samples {
		if s := &pr.samples[i]; s.id != "" {
			next <- s
		}
	}
	close(next)
	wg.Wait()
}

// scrape reads /metrics every scrapeEvery until stop is closed.
func (b *bench) scrape(ctx context.Context, c *client, stop <-chan struct{}, wg *sync.WaitGroup, add func(readSample, error)) {
	defer wg.Done()
	t := time.NewTicker(b.w.scrapeEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-t.C:
			add(c.timedGet(ctx, "metrics", "/metrics", ""))
		}
	}
}

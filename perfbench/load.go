package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// drainTimeout bounds how long a phase's jobs may take to finish.
const drainTimeout = 60 * time.Second

// backlogPoints is how many instants of a rung the backlog rule samples.
const backlogPoints = 16

// window is what the daemon's own counters say about the nominal rung.
type window struct {
	cpu0, cpu1   []float64 // per SUT process, daemon first
	heap0, heap1 memStats
	h0, h1       healthz
	jb0, jb1     int64              // journal directory bytes
	m0, m1       map[string]float64 // /metrics counters without job labels
	grantChanges int                // /arbiter decisions inside the window (traced pass)
}

// loadResult is one load pass: warm-up, the nominal rung, then the ladder.
type loadResult struct {
	rungs    []*phaseResult // nil where the ladder stopped early
	verdicts []rungVerdict
	win      window
	meanLive float64 // mean jobs in the daemon during the nominal rung

	attempted, failed, wrong int
	lines                    []string // per-phase counts for the report
}

// good reports whether a sample finished with the reference result.
func (b *bench) good(s *sample) bool {
	return s.err == nil && s.view != nil && b.ref.check(s.req, s.view.State, s.view.Result) == nil
}

// load runs the warm-up, the nominal rung with its counter window, and the
// ladder's higher rungs while they pass.
func (b *bench) load(ctx context.Context, s *sut, tr *tracer) (*loadResult, error) {
	c := newClient(s.addr, tr)
	defer c.close()
	pprof := &http.Client{Timeout: 30 * time.Second}
	warm, rungs := b.w.schedule(b.seed, b.seconds)
	res := &loadResult{}

	wp := b.runPhase(ctx, c, warm)
	if err := b.finish(ctx, c, wp, res, "warm-up"); err != nil {
		return nil, err
	}

	var err error
	win := &res.win
	if win.heap0, err = readHeap(pprof, s.pprofAddr); err != nil {
		return nil, err
	}
	if win.h0, err = c.healthz(ctx); err != nil {
		return nil, err
	}
	if win.m0, err = scrapeCounters(ctx, c); err != nil {
		return nil, err
	}
	if win.jb0, err = dirBytes(s.journalDir); err != nil {
		return nil, err
	}
	if win.cpu0, err = cpuAll(s.pids()); err != nil {
		return nil, err
	}
	for i, arr := range rungs {
		var grants *grantLog
		if i == 0 && tr != nil {
			// Only the traced pass reads the grant log: the polls cost
			// the daemon CPU that the untraced pass must not carry.
			if grants, err = watchGrants(ctx, c); err != nil {
				return nil, err
			}
		}
		pr := b.runPhase(ctx, c, arr)
		if err := b.drain(ctx, c, drainTimeout); err != nil {
			return nil, err
		}
		if grants != nil {
			if err := grants.stop(ctx, c); err != nil {
				return nil, err
			}
		}
		if i == 0 {
			if win.cpu1, err = cpuAll(s.pids()); err != nil {
				return nil, err
			}
			if win.jb1, err = dirBytes(s.journalDir); err != nil {
				return nil, err
			}
			if win.heap1, err = readHeap(pprof, s.pprofAddr); err != nil {
				return nil, err
			}
			if win.h1, err = c.healthz(ctx); err != nil {
				return nil, err
			}
			if win.m1, err = scrapeCounters(ctx, c); err != nil {
				return nil, err
			}
		}
		if err := b.finish(ctx, c, pr, res, fmt.Sprintf("rung %d (%g jobs/s)", i, b.w.ladder[i].rate)); err != nil {
			return nil, err
		}
		res.rungs = append(res.rungs, pr)
		v := b.verdict(pr)
		res.verdicts = append(res.verdicts, v)
		if i == 0 {
			if grants != nil {
				win.grantChanges = grants.within(pr)
			}
			res.meanLive = meanBacklog(b, pr)
		}
		if highestPassing(res.verdicts, b.w.limitMS) != i {
			break // higher rungs only overload further
		}
	}
	return res, nil
}

// finish drains a phase, collects its job views and counts its outcomes.
func (b *bench) finish(ctx context.Context, c *client, pr *phaseResult, res *loadResult, label string) error {
	if err := b.drain(ctx, c, drainTimeout); err != nil {
		return err
	}
	b.collect(ctx, c, pr)
	refused, unfinished, wrong := 0, 0, 0
	for i := range pr.samples {
		s := &pr.samples[i]
		switch {
		case s.id == "":
			refused++
		case s.view == nil || (s.view.State != "done" && s.view.State != "failed"):
			unfinished++
		case !b.good(s):
			wrong++
		}
	}
	n := len(pr.samples)
	failed := refused + unfinished + wrong
	res.attempted += n
	res.failed += failed
	res.wrong += wrong
	res.lines = append(res.lines, fmt.Sprintf("%-22s sent %5d  succeeded %5d  failed %d (refused %d, unfinished %d, wrong or failed %d); reads %d, read errors %d",
		label, n, n-failed, failed, refused, unfinished, wrong, len(pr.reads), pr.readErr))
	return nil
}

// verdict applies the ladder rule's inputs to one rung.
func (b *bench) verdict(pr *phaseResult) rungVerdict {
	var e2e []float64
	failed := 0
	for i := range pr.samples {
		if s := &pr.samples[i]; b.good(s) {
			e2e = append(e2e, s.e2eMS())
		} else {
			failed++
		}
	}
	v := rungVerdict{valid: failed == 0 && p99Valid(len(e2e))}
	if len(e2e) > 0 {
		v.e2eP99MS = quantile(e2e, 0.99)
	}
	v.growing = backlogGrows(backlog(b, pr, backlogPoints), b.w.ladder[pr.rung].rate, b.w.limitMS)
	return v
}

// backlog samples, at points equally spaced over the rung's arrivals, how
// many of its jobs were due but not yet finished.
func backlog(b *bench, pr *phaseResult, points int) []int {
	type span struct{ from, to time.Time }
	var spans []span
	var first, last time.Time
	for i := range pr.samples {
		s := &pr.samples[i]
		if first.IsZero() || s.dueAt.Before(first) {
			first = s.dueAt
		}
		if s.dueAt.After(last) {
			last = s.dueAt
		}
		if b.good(s) {
			spans = append(spans, span{s.dueAt, s.dueAt.Add(time.Duration(s.e2eMS() * float64(time.Millisecond)))})
		}
	}
	out := make([]int, points)
	for k := range out {
		t := first.Add(time.Duration(float64(last.Sub(first)) * float64(k) / float64(points-1)))
		for _, sp := range spans {
			if !t.Before(sp.from) && t.Before(sp.to) {
				out[k]++
			}
		}
	}
	return out
}

// meanBacklog is the mean number of the rung's jobs in the system.
func meanBacklog(b *bench, pr *phaseResult) float64 {
	bl := backlog(b, pr, 64)
	t := 0
	for _, n := range bl {
		t += n
	}
	return float64(t) / float64(len(bl))
}

func cpuAll(pids []int) ([]float64, error) {
	out := make([]float64, len(pids))
	for i, pid := range pids {
		v, err := cpuMS(pid)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// scrapeCounters reads the /metrics series that carry no job label and
// sums per-node series by name.
func scrapeCounters(ctx context.Context, c *client) (map[string]float64, error) {
	body, _, err := c.get(ctx, "server.metrics_counters", "/metrics", "")
	if err != nil {
		return nil, err
	}
	return parseCounters(string(body)), nil
}

// parseCounters turns a text exposition into name → value, skipping
// per-job series and summing labelled series of the same name.
func parseCounters(text string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "{job=") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		out[name] += v
	}
	return out
}

// grantPoll is how often the grant log is read while it is watched.
const grantPoll = 250 * time.Millisecond

// grantDecision is one entry of the daemon's /arbiter log.
type grantDecision struct {
	TMS    float64 `json:"t_ms"`
	Job    string  `json:"job"`
	OldLP  int     `json:"old_lp"`
	NewLP  int     `json:"new_lp"`
	Reason string  `json:"reason"`
}

// grantLog gathers the arbiter's grant decisions by reading /arbiter
// every grantPoll. The daemon serves only its most recent decisions, so
// each read must still hold the newest decision of the read before it;
// when it does not, decisions were dropped unseen and the count is refused
// rather than reported short.
type grantLog struct {
	seen  []grantDecision
	err   error
	quit  chan struct{}
	ended chan struct{}
}

// watchGrants reads the log once, then keeps reading it on its own
// goroutine until stop; only that goroutine touches the log meanwhile.
func watchGrants(ctx context.Context, c *client) (*grantLog, error) {
	g := &grantLog{quit: make(chan struct{}), ended: make(chan struct{})}
	if err := g.poll(ctx, c); err != nil {
		return nil, err
	}
	go func() {
		defer close(g.ended)
		t := time.NewTicker(grantPoll)
		defer t.Stop()
		for {
			select {
			case <-g.quit:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				if err := g.poll(ctx, c); err != nil {
					g.err = err
					return
				}
			}
		}
	}()
	return g, nil
}

// poll reads /arbiter and appends the decisions not seen before.
func (g *grantLog) poll(ctx context.Context, c *client) error {
	var av struct {
		Decisions []grantDecision `json:"decisions"`
	}
	if err := c.getJSON(ctx, "core.arbiter_log", "/arbiter", "", &av); err != nil {
		return err
	}
	fresh, err := newDecisions(g.seen, av.Decisions)
	if err != nil {
		return err
	}
	g.seen = append(g.seen, fresh...)
	return nil
}

// newDecisions returns the entries of a read of the log that come after
// the newest decision already seen. The log only appends and drops its
// oldest entries, so that decision must still be in the read.
func newDecisions(seen, read []grantDecision) ([]grantDecision, error) {
	if len(seen) == 0 {
		return read, nil
	}
	last := seen[len(seen)-1]
	for i := len(read) - 1; i >= 0; i-- {
		if read[i] == last {
			return read[i+1:], nil
		}
	}
	return nil, fmt.Errorf("arbiter log dropped decisions between two reads %v apart; core.grant_changes_per_job would undercount", grantPoll)
}

// stop ends the watch with a last read, taken after the phase drained.
func (g *grantLog) stop(ctx context.Context, c *client) error {
	close(g.quit)
	<-g.ended
	if g.err != nil {
		return g.err
	}
	return g.poll(ctx, c)
}

// within counts the decisions stamped inside the rung's span of daemon
// time: created of its first job to finished of its last.
func (g *grantLog) within(pr *phaseResult) int {
	lo, hi := -1.0, -1.0
	for i := range pr.samples {
		v := pr.samples[i].view
		if v == nil {
			continue
		}
		if lo < 0 || v.CreatedMS < lo {
			lo = v.CreatedMS
		}
		if v.FinishedMS > hi {
			hi = v.FinishedMS
		}
	}
	n := 0
	for _, d := range g.seen {
		if d.TMS >= lo && d.TMS <= hi {
			n++
		}
	}
	return n
}

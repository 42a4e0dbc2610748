package server

import (
	"net/http/httptest"
	"testing"
	"time"
)

// TestTerminalJobKeepsOnlyOutcome: a finished job drops its runner and
// handle (the raw result never outlives watch), and its view, /decisions
// and /timeline, all rendered from the outcome record, still agree.
func TestTerminalJobKeepsOnlyOutcome(t *testing.T) {
	srv, ts := newTestDaemon(t, Config{
		Budget: 4, Rebalance: 5 * time.Millisecond,
		AnalysisTick: 2 * time.Millisecond, AnalysisInterval: time.Millisecond,
	})
	base := ts.URL

	sub := submitSleepgrid(t, base, 40, 8) // goal badly missed: decisions
	j, ok := srv.Job(sub.ID)
	if !ok {
		t.Fatalf("job %s not in the table", sub.ID)
	}
	out := waitJobDone(t, j)
	if out.err != "" || out.result != "16" {
		t.Fatalf("outcome = result %q err %q, want 16", out.result, out.err)
	}
	j.mu.Lock()
	runner, handle := j.runner, j.handle
	j.mu.Unlock()
	if runner != nil || handle != nil {
		t.Fatalf("terminal job still holds runner %v / handle %v", runner, handle)
	}

	v := getJSON[jobView](t, base+"/jobs/"+sub.ID)
	if v.State != "done" || v.Result != "16" || v.LP != 0 || v.Active != 0 {
		t.Fatalf("view = %+v, want done/16 at LP 0", v)
	}
	if v.Decisions == 0 || v.Analyses == 0 || v.TasksRun == 0 {
		t.Fatalf("view lost the execution record: decisions %d analyses %d tasks %d",
			v.Decisions, v.Analyses, v.TasksRun)
	}
	decs := getJSON[[]decisionView](t, base+"/jobs/"+sub.ID+"/decisions")
	if len(decs) != v.Decisions {
		t.Fatalf("/decisions has %d entries, view says %d", len(decs), v.Decisions)
	}
	kinds := map[string]int{}
	for _, rec := range getNDJSON(t, base+"/jobs/"+sub.ID+"/timeline") {
		kinds[rec["type"].(string)]++
	}
	if kinds["decision"] != v.Decisions || kinds["lp"] == 0 {
		t.Fatalf("/timeline kinds %v, want %d decisions and lp samples", kinds, v.Decisions)
	}
}

// TestRestoredJobMatchesFinishedJob: jobs that finish in one daemon and are
// restored from its journal by a second show the same state, result, error
// and fault totals in both.
func TestRestoredJobMatchesFinishedJob(t *testing.T) {
	dir := t.TempDir()
	jn1, _ := openJournal(t, dir)
	srv1 := New(Config{Budget: 4, Rebalance: 5 * time.Millisecond, Journal: jn1})
	ts1 := httptest.NewServer(srv1.Handler())

	ids := []string{
		submitSleepgrid(t, ts1.URL, 0, 2).ID,
		submitChaosgrid(t, ts1.URL, map[string]any{"retries": 20}).ID,
		submitChaosgrid(t, ts1.URL, map[string]any{"partial": "skip"}).ID,
		submitChaosgrid(t, ts1.URL, nil).ID, // failfast: fails
	}
	before := map[string]jobView{}
	for _, id := range ids {
		before[id] = waitJob(t, ts1.URL, id, "done", "failed")
	}
	ts1.Close()
	srv1.Close()
	_ = jn1.Close()

	jn2, states := openJournal(t, dir)
	defer jn2.Close()
	_, ts2 := newTestDaemon(t, Config{Budget: 4, Journal: jn2, Recover: states})
	for _, id := range ids {
		a := before[id]
		b := getJSON[jobView](t, ts2.URL+"/jobs/"+id)
		if !b.Recovered {
			t.Errorf("%s: restored view not marked recovered", id)
		}
		if a.State != b.State || a.Result != b.Result || a.Error != b.Error ||
			a.Retries != b.Retries || a.Faults != b.Faults || a.Timeouts != b.Timeouts ||
			a.Skipped != b.Skipped || a.Substituted != b.Substituted {
			t.Errorf("%s: finished %+v\nrestored %+v", id, a, b)
		}
	}
	if v := before[ids[1]]; v.Retries == 0 {
		t.Errorf("retrying chaosgrid recorded no retries (seed drift?): %+v", v)
	}
	if v := before[ids[3]]; v.State != "failed" || v.Error == "" {
		t.Errorf("failfast chaosgrid = %s %q, want failed with an error", v.State, v.Error)
	}
}

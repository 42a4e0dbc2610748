package server

import (
	"bufio"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"skandium/internal/metrics"
)

// scrapeMetrics reads /metrics into a map from series (name plus labels)
// to value.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad /metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// sumSeries adds up every labelled series of one per-job metric.
func sumSeries(m map[string]float64, name string) (sum float64, n int) {
	for k, v := range m {
		if strings.HasPrefix(k, name+"{") {
			sum += v
			n++
		}
	}
	return sum, n
}

// TestFleetLPSum: the fleet LP sum follows each job's latest gauged LP and
// keeps its peak; after a real run every job has dropped to 0 and the peak
// stayed within the budget.
func TestFleetLPSum(t *testing.T) {
	unit := New(Config{Budget: 8})
	defer unit.Close()
	a := &job{rec: metrics.NewRecorder()}
	b := &job{rec: metrics.NewRecorder()}
	t0 := time.Unix(0, 0)
	for _, g := range []struct {
		j                 *job
		ms, lp, total, pk int
	}{
		{a, 0, 2, 2, 2},
		{b, 5, 3, 5, 5},
		{a, 10, 4, 7, 7},
		{b, 15, 0, 4, 7},
	} {
		unit.gauge(g.j, t0.Add(time.Duration(g.ms)*time.Millisecond), 0, g.lp)
		if tot, pk := unit.fleetLP(); tot != g.total || pk != g.pk {
			t.Fatalf("after LP %d at %dms: total %d peak %d, want %d/%d", g.lp, g.ms, tot, pk, g.total, g.pk)
		}
	}
	unit.endGauge(a, t0.Add(20*time.Millisecond))
	unit.gauge(a, t0.Add(21*time.Millisecond), 1, 4) // a worker's late sample
	if tot, pk := unit.fleetLP(); tot != 0 || pk != 7 {
		t.Fatalf("after job a ended: total %d peak %d, want 0/7", tot, pk)
	}
	if n := len(a.rec.Samples()); n != 4 {
		t.Fatalf("job a timeline has %d samples, want 4", n)
	}

	const budget = 4
	_, ts := newTestDaemon(t, Config{
		Budget: budget, Rebalance: 5 * time.Millisecond,
		AnalysisTick: 2 * time.Millisecond, AnalysisInterval: time.Millisecond,
	})
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, submitSleepgrid(t, ts.URL, 40, 4).ID)
	}
	for _, id := range ids {
		waitState(t, ts.URL, id, "done", 20*time.Second)
	}
	m := scrapeMetrics(t, ts.URL)
	if got := m["skelrund_total_lp"]; got != 0 {
		t.Errorf("skelrund_total_lp = %v after every job finished, want 0", got)
	}
	if pk := m["skelrund_peak_total_lp"]; pk < 1 || pk > budget {
		t.Errorf("skelrund_peak_total_lp = %v, want within [1, %d]", pk, budget)
	}
}

// TestFleetLPSumConcurrent: workers gauging while their job ends leave the
// fleet LP sum at zero, and the peak never exceeds what the jobs held at
// once.
func TestFleetLPSumConcurrent(t *testing.T) {
	srv := New(Config{Budget: 8})
	defer srv.Close()
	const jobs, workers, maxLP = 4, 3, 5
	var wg sync.WaitGroup
	for range jobs {
		j := &job{rec: metrics.NewRecorder()}
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range 200 {
					srv.gauge(j, time.Now(), w, 1+(i+w)%maxLP)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Millisecond)
			srv.endGauge(j, time.Now())
		}()
	}
	wg.Wait()
	if tot, pk := srv.fleetLP(); tot != 0 || pk < 1 || pk > jobs*maxLP {
		t.Fatalf("total %d peak %d, want 0 and within [1, %d]", tot, pk, jobs*maxLP)
	}
}

// TestFleetFaultTotalsSumJobs: the fleet retry and fault totals are the
// sums of the per-job series.
func TestFleetFaultTotalsSumJobs(t *testing.T) {
	_, ts := newTestDaemon(t, Config{Budget: 4, Rebalance: 5 * time.Millisecond})
	ids := []string{
		submitChaosgrid(t, ts.URL, map[string]any{"retries": 20}).ID,
		submitChaosgrid(t, ts.URL, map[string]any{"retries": 20}).ID,
		submitChaosgrid(t, ts.URL, nil).ID, // failfast: one terminal fault
	}
	for _, id := range ids {
		waitJob(t, ts.URL, id, "done", "failed")
	}
	m := scrapeMetrics(t, ts.URL)
	retries, n := sumSeries(m, "skelrund_job_retries_total")
	if n != len(ids) || retries == 0 {
		t.Fatalf("per-job retries: %d series summing to %v, want %d series and > 0", n, retries, len(ids))
	}
	if got := m["skelrund_retries_total"]; got != retries {
		t.Errorf("skelrund_retries_total = %v, per-job sum %v", got, retries)
	}
	faults, _ := sumSeries(m, "skelrund_job_faults_total")
	if faults == 0 {
		t.Errorf("per-job faults sum to 0, want the failfast job's fault")
	}
	if got := m["skelrund_faults_total"]; got != faults {
		t.Errorf("skelrund_faults_total = %v, per-job sum %v", got, faults)
	}
}

// TestAdmissionShedCounts: shed counters accumulate per reason and per
// tenant, from the ladder and from the server's own refusals, and stats
// returns copies the caller cannot use to corrupt the counters.
func TestAdmissionShedCounts(t *testing.T) {
	a := newAdmission(admissionConfig{QueueMax: 1})
	if st := a.stats(); len(st.Sheds) != 0 || len(st.TenantSheds) != 0 {
		t.Fatalf("fresh sheds = %v / %v, want empty", st.Sheds, st.TenantSheds)
	}
	a.shed("alpha", shedInfeasible)
	a.shed("beta", shedDraining)
	if v := a.decide("alpha", 0); !v.admit {
		t.Fatalf("first submission shed: %+v", v)
	}
	if v := a.decide("alpha", 0); v.admit || v.reason != shedQueueFull {
		t.Fatalf("second submission = %+v, want shed %s", v, shedQueueFull)
	}
	st := a.stats()
	if st.Sheds[shedInfeasible] != 1 || st.Sheds[shedDraining] != 1 ||
		st.Sheds[shedQueueFull] != 1 || len(st.Sheds) != 3 {
		t.Fatalf("sheds = %v, want one each of infeasible, draining, queue-full", st.Sheds)
	}
	if al := st.TenantSheds["alpha"]; al[shedInfeasible] != 1 || al[shedQueueFull] != 1 || len(al) != 2 {
		t.Fatalf("alpha sheds = %v", al)
	}
	if be := st.TenantSheds["beta"]; be[shedDraining] != 1 || len(be) != 1 {
		t.Fatalf("beta sheds = %v", be)
	}
	st.Sheds[shedQueueFull] = 99
	st.TenantSheds["alpha"][shedQueueFull] = 99
	again := a.stats()
	if again.Sheds[shedQueueFull] != 1 || again.TenantSheds["alpha"][shedQueueFull] != 1 {
		t.Fatalf("stats returned shared maps: %v / %v", again.Sheds, again.TenantSheds)
	}
}

// TestEventsFromParam: ?from= takes a non-negative integer; anything else
// is a 400 rather than a silent read from some other cursor.
func TestEventsFromParam(t *testing.T) {
	_, ts := newTestDaemon(t, Config{Budget: 2})
	id := submitSleepgrid(t, ts.URL, 0, 1).ID
	v := waitState(t, ts.URL, id, "done", 20*time.Second)
	if v.Events < 3 {
		t.Fatalf("job logged %d events, want >= 3", v.Events)
	}
	for _, tc := range []struct {
		from      string
		code      int
		firstSeq  float64
		wantLines int64
	}{
		{"", http.StatusOK, 0, v.Events},
		{"0", http.StatusOK, 0, v.Events},
		{"2", http.StatusOK, 2, v.Events - 2},
		{strconv.FormatInt(v.Events, 10), http.StatusOK, 0, 0},
		{"-3", http.StatusBadRequest, 0, 0},
		{"abc", http.StatusBadRequest, 0, 0},
		{"2x", http.StatusBadRequest, 0, 0},
		{"1.5", http.StatusBadRequest, 0, 0},
	} {
		url := ts.URL + "/jobs/" + id + "/events"
		if tc.from != "" {
			url += "?from=" + tc.from
		}
		if tc.code != http.StatusOK {
			resp, err := http.Get(url)
			if err != nil {
				t.Fatalf("GET %s: %v", url, err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.code {
				t.Errorf("from=%q: status %d, want %d", tc.from, resp.StatusCode, tc.code)
			}
			continue
		}
		recs := getNDJSON(t, url)
		if int64(len(recs)) != tc.wantLines {
			t.Errorf("from=%q: %d lines, want %d", tc.from, len(recs), tc.wantLines)
			continue
		}
		for _, rec := range recs {
			if _, ok := rec["truncated"]; ok {
				t.Errorf("from=%q: unexpected truncation marker %v", tc.from, rec)
			}
		}
		if len(recs) > 0 && recs[0]["seq"] != tc.firstSeq {
			t.Errorf("from=%q: first seq %v, want %v", tc.from, recs[0]["seq"], tc.firstSeq)
		}
	}
}

package main

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"skandium"
	_ "skandium/internal/server" // registers the blueprint catalog
)

func TestScheduleDeterministic(t *testing.T) {
	for _, w := range workloads {
		warm1, rungs1 := w.schedule(7, 20)
		warm2, rungs2 := w.schedule(7, 20)
		if !reflect.DeepEqual(warm1, warm2) || !reflect.DeepEqual(rungs1, rungs2) {
			t.Fatalf("%s: same seed gave different schedules", w.name)
		}
		_, other := w.schedule(8, 20)
		if reflect.DeepEqual(rungs1, other) {
			t.Fatalf("%s: seeds 7 and 8 gave the same schedule", w.name)
		}
		for i, rg := range w.ladder {
			want := rg.jobs
			if want == 0 {
				want = int(rg.rate*rg.share*20 + 0.5)
			}
			if len(rungs1[i]) != want {
				t.Fatalf("%s rung %d: %d arrivals, want %d", w.name, i, len(rungs1[i]), want)
			}
			for k := 1; k < len(rungs1[i]); k++ {
				if rungs1[i][k].due < rungs1[i][k-1].due {
					t.Fatalf("%s rung %d: arrivals out of order", w.name, i)
				}
			}
		}
	}
}

func TestFixtureParamsDeterministic(t *testing.T) {
	for _, w := range workloads {
		r1, r2 := w.rng(3, "fixture"), w.rng(3, "fixture")
		for i := 0; i < 50; i++ {
			if a, b := w.draw(r1), w.draw(r2); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: draw %d differs: %+v vs %+v", w.name, i, a, b)
			}
		}
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 0.5, true},
		{100, 0.9, true},
		{500, 0.98, true},
		{1000, 0.99, true},
		{5000, 0.99, true},
	} {
		q, ok := tailQuantile(c.n)
		if ok != c.ok || math.Abs(q-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
	}
	if p99Valid(999) || !p99Valid(1000) {
		t.Errorf("p99Valid: 999 must be too few, 1000 enough")
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, pct, ok := tail(xs)
	// p95 of 1..200: 10 samples (191..200) lie beyond it.
	if !ok || pct != 95 || math.Abs(v-190.05) > 1e-9 {
		t.Errorf("tail(1..200) = %v at p%v, %v; want 190.05 at p95", v, pct, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond < minTail {
		t.Errorf("%d samples beyond the reported tail, want at least %d", beyond, minTail)
	}
}

func TestBacklogRule(t *testing.T) {
	flat := []int{10, 12, 9, 11, 10, 13, 8, 10, 11, 9, 12, 10, 10, 11, 9, 10}
	if backlogGrows(flat, 100, 250) {
		t.Errorf("a steady backlog counted as growing")
	}
	growing := make([]int, 16)
	for i := range growing {
		growing[i] = 40 * i
	}
	if !backlogGrows(growing, 100, 250) {
		t.Errorf("a backlog rising by 600 jobs not counted as growing at 100 jobs/s × 250 ms")
	}
	// The same rise is within what may be in flight at a higher rate.
	if backlogGrows(growing, 4000, 250) {
		t.Errorf("a rise of 600 jobs counted as growing where 1000 may be in flight")
	}
}

func TestLadderRule(t *testing.T) {
	pass := rungVerdict{e2eP99MS: 20, valid: true}
	slow := rungVerdict{e2eP99MS: 300, valid: true}
	grow := rungVerdict{e2eP99MS: 20, valid: true, growing: true}
	short := rungVerdict{e2eP99MS: 20}
	for _, c := range []struct {
		name  string
		rungs []rungVerdict
		want  int
	}{
		{"all pass", []rungVerdict{pass, pass, pass}, 2},
		{"limit missed", []rungVerdict{pass, slow, pass}, 0},
		{"backlog grows", []rungVerdict{pass, pass, grow}, 1},
		{"too few samples", []rungVerdict{pass, short}, 0},
		{"first fails", []rungVerdict{slow, pass}, -1},
		{"empty", nil, -1},
	} {
		if got := highestPassing(c.rungs, 250); got != c.want {
			t.Errorf("%s: highestPassing = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestMaxRate(t *testing.T) {
	ladder := []rung{{rate: 300, share: 0.5}, {rate: 400, jobs: 1200}, {rate: 530, jobs: 1200}}
	pass := rungVerdict{e2eP99MS: 20, valid: true}
	slow := rungVerdict{e2eP99MS: 300, valid: true}
	if r, ok := maxRate(ladder, []rungVerdict{pass, pass, slow}, 250); !ok || r != 400 {
		t.Errorf("maxRate = %v, %v; want the offered 400 jobs/s", r, ok)
	}
	if r, ok := maxRate(ladder, []rungVerdict{pass, pass, pass}, 250); !ok || r != 530 {
		t.Errorf("maxRate = %v, %v; want 530 jobs/s", r, ok)
	}
	if _, ok := maxRate(ladder, []rungVerdict{slow}, 250); ok {
		t.Errorf("a failing nominal rung gave a max rate")
	}
	if _, ok := maxRate(ladder[:1], []rungVerdict{pass}, 250); ok {
		t.Errorf("a one-rung ladder gave a max rate")
	}
}

func TestNewDecisionsDetectsLoss(t *testing.T) {
	d := func(ms float64) grantDecision { return grantDecision{TMS: ms, Job: "job-1", OldLP: 1, NewLP: 2} }
	seen := []grantDecision{d(1), d(2), d(3)}
	// The log dropped its oldest entries but still holds the newest seen.
	got, err := newDecisions(seen, []grantDecision{d(2), d(3), d(4), d(5)})
	if err != nil || !reflect.DeepEqual(got, []grantDecision{d(4), d(5)}) {
		t.Errorf("newDecisions = %v, %v; want [4 5]", got, err)
	}
	if got, err := newDecisions(seen, []grantDecision{d(3)}); err != nil || len(got) != 0 {
		t.Errorf("an unchanged log gave %v, %v", got, err)
	}
	// Everything up to and past the newest seen decision was dropped.
	if _, err := newDecisions(seen, []grantDecision{d(5), d(6)}); err == nil {
		t.Errorf("decisions dropped between reads went unnoticed")
	}
	if got, err := newDecisions(nil, []grantDecision{d(1)}); err != nil || len(got) != 1 {
		t.Errorf("first read gave %v, %v", got, err)
	}
}

func TestReferenceRejectsWrongResults(t *testing.T) {
	ref := newReference()
	mc := submitReq{Skeleton: "montecarlo", Params: map[string]any{"samples": 4000, "batches": 8}}
	want, err := ref.expect(mc)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.check(mc, "done", want); err != nil {
		t.Fatalf("correct hit count rejected: %v", err)
	}
	if ref.check(mc, "done", want+"1") == nil {
		t.Errorf("wrong hit count accepted")
	}
	if ref.check(mc, "failed", want) == nil {
		t.Errorf("failed job accepted")
	}
	sg := submitReq{Skeleton: "sleepgrid", Params: map[string]any{"k": 4.0, "m": 3.0, "cell_ms": 1.0}}
	if err := ref.check(sg, "done", "12"); err != nil {
		t.Errorf("sleepgrid 4×3 = 12 rejected: %v", err)
	}
	if ref.check(sg, "done", "11") == nil {
		t.Errorf("sleepgrid wrong tally accepted")
	}
	if ref.check(submitReq{Skeleton: "wordcount"}, "done", "") == nil {
		t.Errorf("a skeleton without a reference was accepted")
	}
}

// The reference must agree with the program it checks: run the catalog's
// montecarlo blueprint in-process and compare.
func TestReferenceMatchesProgram(t *testing.T) {
	ref := newReference()
	for _, p := range [][2]int{{2000, 4}, {5000, 13}, {6000, 16}} {
		req := submitReq{Skeleton: "montecarlo", Params: map[string]any{"samples": p[0], "batches": p[1]}}
		bp, _ := skandium.LookupBlueprint("montecarlo")
		rn, err := bp.Build(skandium.Params(req.Params))
		if err != nil {
			t.Fatal(err)
		}
		h := rn.Start(skandium.WithLP(2))
		got, err := h.Result()
		h.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want := ref.montecarlo(p[0], p[1]); got != want {
			t.Errorf("montecarlo %v: program %v, reference %v", p, got, want)
		}
	}
}

func TestLPSeconds(t *testing.T) {
	body := strings.Join([]string{
		`{"type":"lp","t_ms":0,"lp":1}`,
		`{"type":"decision","t_ms":5,"old_lp":1,"new_lp":2}`,
		`{"type":"lp","t_ms":10,"lp":2}`,
	}, "\n")
	// LP 1 for 10 ms, then LP 2 until the finish at 30 ms: 0.05 LP·s.
	if got := lpSeconds([]byte(body), 30); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("lpSeconds = %v, want 0.05", got)
	}
}

func TestParseCounters(t *testing.T) {
	text := "# HELP x\nskelrund_budget 4\nskelrund_cluster_node_tasks_total{node=\"a\"} 3\n" +
		"skelrund_cluster_node_tasks_total{node=\"b\"} 5\nskelrund_job_lp{job=\"job-1\",skeleton=\"s\"} 9\n"
	got := parseCounters(text)
	if got["skelrund_budget"] != 4 || got["skelrund_cluster_node_tasks_total"] != 8 {
		t.Errorf("parseCounters = %v", got)
	}
	if _, ok := got["skelrund_job_lp"]; ok {
		t.Errorf("per-job series kept: %v", got)
	}
}

package server

import (
	"testing"
	"time"

	"skandium/internal/workload"
)

// overloadAcceptanceConfig is the canonical 2× oversubscription episode:
// three tenants weighted 3/2/1 whose burst demand is double the budget's
// drain capacity (budget 24 LP × 1s / 120ms mean work = 200 jobs/s; burst
// offers 400/s split proportionally to the weights). QueueMax 121 makes the
// quotas 60/40/20 — their sum 120 stays under the hard wall, so guaranteed
// traffic alone can never trip "overloaded".
func overloadAcceptanceConfig(seed int64, burst time.Duration) OverloadConfig {
	warm := 20 * time.Second
	cool := 15 * time.Second
	return OverloadConfig{
		Budget:        24,
		QueueMax:      121,
		Tenants:       map[string]int{"alpha": 3, "beta": 2, "gamma": 1},
		BrownoutAfter: 100 * time.Millisecond,
		BrownoutExit:  2 * time.Second,
		Seed:          seed,
		Pattern: workload.OverloadPattern{
			Seed:       seed,
			Duration:   warm + burst + cool,
			BurstStart: warm,
			BurstEnd:   warm + burst,
			MeanWork:   120 * time.Millisecond,
			MaxWantLP:  4,
			Tenants: []workload.TenantLoad{
				{Name: "alpha", Weight: 3, Rate: 10, BurstRate: 200, GoalFrac: 0.3},
				{Name: "beta", Weight: 2, Rate: 6, BurstRate: 133},
				{Name: "gamma", Weight: 1, Rate: 4, BurstRate: 67},
			},
		},
	}
}

// TestOverloadFairnessInvariants is the acceptance run: hundreds of
// thousands of seeded submissions through the real admission ladder and the
// real weighted-fair arbiter under virtual time, asserting
//
//  1. granted-LP shares during saturation track the 3/2/1 weights within
//     10%,
//  2. guaranteed-share submissions are never shed,
//  3. the health ladder walks exactly ok → browned-out → ok.
func TestOverloadFairnessInvariants(t *testing.T) {
	cfg := overloadAcceptanceConfig(1, 480*time.Second)
	rep := RunOverload(cfg)

	if rep.Submitted < 150_000 {
		t.Fatalf("pattern produced %d submissions, want ≥ 150k (overload not exercised)", rep.Submitted)
	}
	t.Logf("submitted=%d admitted=%d completed=%d shed=%v peakQueue=%d",
		rep.Submitted, rep.Admitted, rep.Completed, rep.Shed, rep.PeakQueue)
	t.Logf("shares=%v transitions=%v waitP50=%v waitP99=%v",
		rep.TenantShare, rep.Transitions, rep.WaitP50, rep.WaitP99)

	// Conservation: every submission either admitted or shed, and every
	// admitted job completed (the harness drains to empty).
	sheds := 0
	for _, n := range rep.Shed {
		sheds += n
	}
	if rep.Admitted+sheds != rep.Submitted {
		t.Errorf("admitted %d + shed %d != submitted %d", rep.Admitted, sheds, rep.Submitted)
	}
	if rep.Completed != rep.Admitted {
		t.Errorf("completed %d != admitted %d", rep.Completed, rep.Admitted)
	}
	// 2× oversubscription must actually shed a substantial fraction.
	if frac := float64(sheds) / float64(rep.Submitted); frac < 0.25 {
		t.Errorf("shed fraction %.2f implausibly low for 2× oversubscription", frac)
	}
	if rep.Shed[shedBrownout] == 0 {
		t.Errorf("no brownout sheds: %v", rep.Shed)
	}

	// Invariant 1: weighted fair shares within 10% (relative) of 3/2/1.
	want := map[string]float64{"alpha": 3.0 / 6, "beta": 2.0 / 6, "gamma": 1.0 / 6}
	for tenant, w := range want {
		got := rep.TenantShare[tenant]
		if got < 0.9*w || got > 1.1*w {
			t.Errorf("tenant %s granted-LP share %.3f outside ±10%% of %.3f", tenant, got, w)
		}
	}

	// Invariant 2: the guaranteed rung is inviolable.
	if rep.GuaranteedSheds != 0 {
		t.Errorf("%d guaranteed-share submissions were shed", rep.GuaranteedSheds)
	}

	// Invariant 3: the ladder walks ok → browned-out → ok, nothing else.
	wantTr := []string{HealthBrownedOut, HealthOK}
	if len(rep.Transitions) != len(wantTr) {
		t.Fatalf("health transitions %v, want exactly %v", rep.Transitions, wantTr)
	}
	for i, tr := range rep.Transitions {
		if tr.Status != wantTr[i] {
			t.Fatalf("transition %d = %s, want %s (all: %v)", i, tr.Status, wantTr[i], rep.Transitions)
		}
	}
	if rep.Transitions[0].At < cfg.Pattern.BurstStart {
		t.Errorf("browned out at %v, before the burst started at %v", rep.Transitions[0].At, cfg.Pattern.BurstStart)
	}
	if rep.Transitions[1].At < cfg.Pattern.BurstEnd {
		t.Errorf("recovered at %v, before the burst ended at %v", rep.Transitions[1].At, cfg.Pattern.BurstEnd)
	}
}

// TestOverloadDeterministic: the same seed replays to the identical report.
func TestOverloadDeterministic(t *testing.T) {
	run := func() *OverloadReport { return RunOverload(overloadAcceptanceConfig(7, 30*time.Second)) }
	a, b := run(), run()
	if a.Submitted != b.Submitted || a.Admitted != b.Admitted || a.Completed != b.Completed ||
		a.GuaranteedSheds != b.GuaranteedSheds || a.PeakQueue != b.PeakQueue ||
		a.WaitP50 != b.WaitP50 || a.WaitP99 != b.WaitP99 {
		t.Fatalf("seeded runs diverged:\n%+v\n%+v", a, b)
	}
	for r, n := range a.Shed {
		if b.Shed[r] != n {
			t.Fatalf("shed[%s] %d vs %d", r, n, b.Shed[r])
		}
	}
	for tn, s := range a.TenantShare {
		if b.TenantShare[tn] != s {
			t.Fatalf("share[%s] %v vs %v", tn, s, b.TenantShare[tn])
		}
	}
	if len(a.Transitions) != len(b.Transitions) {
		t.Fatalf("transition counts differ: %v vs %v", a.Transitions, b.Transitions)
	}
	for i := range a.Transitions {
		if a.Transitions[i] != b.Transitions[i] {
			t.Fatalf("transition %d differs: %v vs %v", i, a.Transitions[i], b.Transitions[i])
		}
	}
}

// TestOverloadLowPrioritySheddedFirst: a low-priority tenant suffers a
// higher shed rate than an equal-weight default-priority tenant under the
// same pressure.
func TestOverloadLowPrioritySheddedFirst(t *testing.T) {
	cfg := OverloadConfig{
		Budget:        8,
		QueueMax:      41, // quotas 20/20, sum 40 < 41
		Tenants:       map[string]int{"steady": 1, "cheap": 1},
		BrownoutAfter: 100 * time.Millisecond,
		BrownoutExit:  2 * time.Second,
		Seed:          3,
		Pattern: workload.OverloadPattern{
			Seed:       3,
			Duration:   120 * time.Second,
			BurstStart: 5 * time.Second,
			BurstEnd:   110 * time.Second,
			MeanWork:   120 * time.Millisecond,
			Tenants: []workload.TenantLoad{
				{Name: "steady", Weight: 1, Rate: 5, BurstRate: 70},
				{Name: "cheap", Weight: 1, Rate: 5, BurstRate: 70, Priority: -1},
			},
		},
	}
	rep := RunOverload(cfg)
	shedOf := func(tenant string) float64 {
		// Approximate per-tenant shed rate from admissions: both tenants
		// offered statistically identical load, so fewer grants ⇒ more shed.
		return rep.TenantShare[tenant]
	}
	if rep.GuaranteedSheds != 0 {
		t.Fatalf("%d guaranteed sheds", rep.GuaranteedSheds)
	}
	// Low priority never rides the guaranteed rung, so under brownout the
	// cheap tenant is starved of new admissions while steady keeps its
	// quota: steady must end up with the (much) larger granted share.
	if shedOf("steady") <= shedOf("cheap") {
		t.Errorf("steady share %.3f not above low-priority share %.3f: %+v",
			shedOf("steady"), shedOf("cheap"), rep)
	}
}

// BenchmarkOverloadAdmission publishes the front door's measured overhead:
// real wall-clock percentiles of the admission decision, plus virtual-time
// shed rate and queue-wait, over a ~35k-submission episode.
func BenchmarkOverloadAdmission(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := overloadAcceptanceConfig(int64(i+1), 80*time.Second)
		cfg.MeasureLatency = true
		rep := RunOverload(cfg)
		sheds := 0
		for _, n := range rep.Shed {
			sheds += n
		}
		b.ReportMetric(float64(rep.DecideP50.Nanoseconds()), "admit_p50_ns")
		b.ReportMetric(float64(rep.DecideP99.Nanoseconds()), "admit_p99_ns")
		b.ReportMetric(float64(sheds)/float64(rep.Submitted), "shed_rate")
		b.ReportMetric(float64(rep.WaitP99)/float64(time.Millisecond), "wait_p99_ms")
	}
}

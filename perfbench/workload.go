package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"
)

// submitReq is the POST /jobs body the generator sends.
type submitReq struct {
	Skeleton string         `json:"skeleton"`
	Params   map[string]any `json:"params"`
	GoalMS   float64        `json:"goal_ms,omitempty"`
	Tenant   string         `json:"tenant,omitempty"`
}

// rung is one fixed offered rate of a workload's ladder. The nominal rung
// is held for share of the run's measured seconds; a higher rung carries a
// fixed number of jobs, enough for a p99 whatever --seconds is.
type rung struct {
	rate  float64 // jobs per second
	share float64 // fraction of --seconds (nominal rung)
	jobs  int     // arrivals (higher rungs)
}

// length is how long the rung offers its rate in a run of seconds.
func (rg rung) length(seconds float64) time.Duration {
	if rg.jobs > 0 {
		return time.Duration(float64(rg.jobs) / rg.rate * float64(time.Second))
	}
	return time.Duration(rg.share * seconds * float64(time.Second))
}

// workload is one named traffic mix: the daemon configuration it runs
// against, its rate ladder, and how it draws job parameters from the seed.
type workload struct {
	name string
	// daemonFlags and workerFlags are passed verbatim to skelrund and each
	// skelworker (the benchmark adds only -addr, -journal-dir, -pprof and
	// -workers, which name ports and directories).
	daemonFlags []string
	workerFlags []string
	workers     int
	// fixtureJobs is the size of the finished-job journal the daemon
	// recovers at every start; setup_s times that recovery.
	fixtureJobs int
	// ladder is ascending; ladder[0] is the nominal rate at which every
	// end-to-end metric other than max_rate_jobs_s is measured. A one-rung
	// ladder measures no max_rate_jobs_s.
	ladder []rung
	// limitMS is the e2e p99 limit of the ladder rule.
	limitMS float64
	// refGoalMS stands in for goal_ms in goal_ratio_* on workloads that
	// send no goal. The daemon never sees it.
	refGoalMS float64
	// readEvery selects which accepted jobs get their /events and
	// /timeline read (every n-th); readDelay is how long after the
	// submit is acknowledged they are read.
	readEvery int
	readDelay time.Duration
	// scrapeEvery paces the /metrics scrape (0: no scrape).
	scrapeEvery time.Duration
	// warmup is how long the nominal rate runs, unmeasured, first.
	warmup time.Duration
	// draw makes one job from the workload's generator.
	draw func(r *rand.Rand) submitReq
}

var workloads = []*workload{
	{
		name:        "tiny-durable",
		daemonFlags: []string{"-fsync", "interval", "-budget", "4"},
		fixtureJobs: 1500,
		// Steps of a third from the nominal rate to past what two
		// connections carry; each higher rung holds 1200 jobs.
		ladder: []rung{{rate: 300, share: 0.5},
			{rate: 400, jobs: 1200}, {rate: 530, jobs: 1200}, {rate: 700, jobs: 1200},
			{rate: 930, jobs: 1200}, {rate: 1240, jobs: 1200}, {rate: 1650, jobs: 1200},
			{rate: 2200, jobs: 1200}, {rate: 2930, jobs: 1200}},
		limitMS:   250,
		refGoalMS: 10,
		readEvery: 2,
		readDelay: 50 * time.Millisecond,
		warmup:    time.Second,
		draw: func(r *rand.Rand) submitReq {
			return submitReq{Skeleton: "montecarlo", Params: map[string]any{
				"samples": 1000 * (2 + r.Intn(5)), "batches": 4 + r.Intn(13),
			}}
		},
	},
	{
		name: "goal-fleet",
		daemonFlags: []string{"-fsync", "interval", "-budget", "16",
			"-tenants", "alpha:3,beta:2,gamma:1"},
		fixtureJobs: 1500,
		ladder:      []rung{{rate: 55, share: 1}},
		limitMS:     1000,
		readEvery:   1,
		readDelay:   400 * time.Millisecond,
		scrapeEvery: 400 * time.Millisecond,
		warmup:      2 * time.Second,
		draw: func(r *rand.Rand) submitReq {
			tenants := []string{"alpha", "beta", "gamma"}
			return submitReq{Skeleton: "sleepgrid", GoalMS: 150,
				Tenant: tenants[r.Intn(len(tenants))],
				Params: map[string]any{"k": 4, "m": 4, "cell_ms": 10 + r.Intn(5)}}
		},
	},
	{
		name:        "cluster-batch",
		daemonFlags: []string{"-fsync", "interval", "-cluster-budget", "8"},
		workerFlags: []string{"-max-lp", "4"},
		workers:     2,
		fixtureJobs: 1500,
		ladder:      []rung{{rate: 55, share: 1}},
		limitMS:     250,
		refGoalMS:   20,
		readEvery:   1,
		readDelay:   100 * time.Millisecond,
		warmup:      time.Second,
		draw: func(r *rand.Rand) submitReq {
			return submitReq{Skeleton: "sleepgrid", Params: map[string]any{
				"k": 2 + r.Intn(3), "m": 2 + r.Intn(2), "cell_ms": 1}}
		},
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// arrival is one scheduled submission.
type arrival struct {
	due  time.Duration // offset from the phase start
	req  submitReq
	rung int // -1 for warm-up
}

// rng derives the generator for one workload and seed, so two workloads
// run with the same seed still draw different jobs.
func (w *workload) rng(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s", w.name, stream)
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// phase builds an open-loop schedule: n = rate×length arrivals placed
// uniformly at random over the phase, which is a Poisson process
// conditioned on its count (the count is fixed so every run carries the
// same number of samples per percentile).
func phase(r *rand.Rand, draw func(*rand.Rand) submitReq, rate float64, length time.Duration, rungIdx int) []arrival {
	n := int(rate*length.Seconds() + 0.5)
	out := make([]arrival, n)
	for i := range out {
		out[i].due = time.Duration(r.Int63n(int64(length)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].due < out[j].due })
	for i := range out {
		out[i].req = draw(r)
		out[i].rung = rungIdx
	}
	return out
}

// schedule returns the warm-up phase and one phase per ladder rung for a
// run of the given measured length.
func (w *workload) schedule(seed int64, seconds float64) (warm []arrival, rungs [][]arrival) {
	r := w.rng(seed, "schedule")
	warm = phase(r, w.draw, w.ladder[0].rate, w.warmup, -1)
	for i, rg := range w.ladder {
		rungs = append(rungs, phase(r, w.draw, rg.rate, rg.length(seconds), i))
	}
	return warm, rungs
}

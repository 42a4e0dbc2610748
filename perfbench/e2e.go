package main

import "fmt"

// endToEnd computes the end-to-end metrics of a load pass, all but
// max_rate_jobs_s, which only a workload with a ladder measures (see
// maxRate). It fails when a p99 would have fewer than minTail samples
// beyond it: the run is too short.
func (b *bench) endToEnd(res *loadResult, setups []float64) (map[string]metric, error) {
	nom := res.rungs[0]
	var submit, e2e, ratio, reads []float64
	finished := 0
	for i := range nom.samples {
		s := &nom.samples[i]
		if s.id != "" {
			submit = append(submit, s.submitMS())
		}
		if s.view != nil && s.view.FinishedMS > 0 {
			finished++
		}
		if !b.good(s) {
			continue
		}
		e2e = append(e2e, s.e2eMS())
		goal := s.req.GoalMS
		if goal == 0 {
			goal = b.w.refGoalMS
		}
		ratio = append(ratio, (s.view.FinishedMS-s.view.StartedMS)/goal)
	}
	for _, r := range nom.reads {
		reads = append(reads, r.ms)
	}
	for name, xs := range map[string][]float64{"submit": submit, "e2e": e2e, "goal_ratio": ratio, "read": reads} {
		if !p99Valid(len(xs)) {
			return nil, fmt.Errorf("run too short: %d %s samples, a p99 needs %d", len(xs), name, 100*minTail)
		}
	}
	if len(e2e) == 0 || finished == 0 {
		return nil, fmt.Errorf("no job finished")
	}
	cpu := 0.0
	for i := range res.win.cpu0 {
		cpu += res.win.cpu1[i] - res.win.cpu0[i]
	}
	heapKB := (res.win.heap1.HeapAlloc - res.win.heap0.HeapAlloc) / 1024
	return map[string]metric{
		"setup_s":         {median(setups), "s"},
		"submit_p50_ms":   {quantile(submit, 0.5), "ms"},
		"submit_p99_ms":   {quantile(submit, 0.99), "ms"},
		"e2e_p50_ms":      {quantile(e2e, 0.5), "ms"},
		"e2e_p99_ms":      {quantile(e2e, 0.99), "ms"},
		"goal_ratio_p50":  {quantile(ratio, 0.5), "ratio"},
		"goal_ratio_p99":  {quantile(ratio, 0.99), "ratio"},
		"read_p50_ms":     {quantile(reads, 0.5), "ms"},
		"read_p99_ms":     {quantile(reads, 0.99), "ms"},
		"cpu_ms_per_job":  {cpu / float64(len(e2e)), "ms"},
		"heap_kb_per_job": {heapKB / float64(finished), "KiB"},
	}, nil
}

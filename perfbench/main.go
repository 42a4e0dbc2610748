// Command perfbench drives a real skelrund (and, for cluster-batch, two
// skelworkers) with an open-loop load over loopback HTTP and reports the
// job path's end-to-end metrics, or with -trace 1 its per-layer metrics.
// perfbench/run.sh builds the binaries and starts it; see README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// setupRuns is how many times a run brings the system up to time set-up.
const setupRuns = 5

// bench is one invocation: a workload, its seed and where it works.
type bench struct {
	w       *workload
	seed    int64
	seconds float64
	bin     string // built skelrund/skelworker
	work    string // scratch directory for journals, logs, spans
	fixture string // the seeded finished-job journal
	ref     *reference
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed for arrivals, job parameters and the journal fixture")
	seconds := flag.Float64("seconds", 20, "measured seconds per load pass")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	bin := flag.String("bin", ".bench_build/bin", "directory holding skelrund and skelworker")
	work := flag.String("work", ".bench_build/run", "scratch directory")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *workloadName, *seed, *seconds, *traceFlag == 1, *bin, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		stop()
		os.Exit(1)
	}
}

func run(ctx context.Context, name string, seed int64, seconds float64, traced bool, bin, work string) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	for _, exe := range []string{"skelrund", "skelworker"} {
		if _, err := os.Stat(filepath.Join(bin, exe)); err != nil {
			return fmt.Errorf("%s not built: %w", exe, err)
		}
	}
	work = filepath.Join(work, fmt.Sprintf("%s-%d", name, seed))
	if err := os.RemoveAll(work); err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	b := &bench{w: w, seed: seed, seconds: seconds, bin: bin, work: work,
		fixture: filepath.Join(work, "fixture"), ref: newReference()}
	if err := writeFixture(w, seed, b.fixture, b.ref); err != nil {
		return err
	}

	setups, s, err := b.setup(ctx)
	if err != nil {
		return err
	}
	plain, err := b.load(ctx, s, nil)
	s.stop()
	if err != nil {
		return err
	}
	fmt.Println("untraced load pass:")
	b.printLoad(plain)
	e2e, err := b.endToEnd(plain, setups)
	if err != nil {
		return err
	}
	fmt.Println("end-to-end metrics (untraced):")
	printMetrics(e2e)
	rep := report{Correct: plain.wrong == 0, Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metric{}}
	all, names := e2e, spec.EndToEnd
	if traced {
		per, res, err := b.tracedRun(ctx, e2e)
		if err != nil {
			return err
		}
		fmt.Println("traced load pass:")
		b.printLoad(res)
		rep.Correct = rep.Correct && res.wrong == 0
		rep.Attempted += res.attempted
		rep.Failed += res.failed
		fmt.Println("per-layer metrics (traced):")
		printMetrics(per)
		for n, m := range per {
			all[n] = m
		}
		names = spec.PerLayer
	}
	for _, n := range names {
		m, ok := all[n.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json names metric %q, which this run does not measure", n.Name)
		}
		if m.Unit != n.Unit {
			return fmt.Errorf("metric %q: measured in %s, BENCHMARK.json says %s", n.Name, m.Unit, n.Unit)
		}
		rep.Metrics[n.Name] = m
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// setup brings the system up setupRuns times over copies of the fixture,
// keeping the last instance running, and returns every bring-up time.
func (b *bench) setup(ctx context.Context) ([]float64, *sut, error) {
	var times []float64
	for i := 0; i < setupRuns; i++ {
		s, d, err := b.bringUp(ctx, fmt.Sprintf("setup%d", i))
		if err != nil {
			return nil, nil, err
		}
		times = append(times, d.Seconds())
		if i == setupRuns-1 {
			return times, s, nil
		}
		s.stop()
	}
	panic("unreachable")
}

// printMetrics prints every measured metric, gated or not.
func printMetrics(ms map[string]metric) {
	for _, n := range sortedNames(ms) {
		fmt.Printf("  %-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// benchSpec is the part of BENCHMARK.json that says which metrics a run
// reports: its end-to-end list untraced, its per-layer list traced.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// printLoad prints the per-phase counts and the ladder verdicts.
func (b *bench) printLoad(res *loadResult) {
	fmt.Printf("%s seed %d: failed_frac %.6g ratio (%d failed of %d attempted)\n",
		b.w.name, b.seed, float64(res.failed)/float64(res.attempted), res.failed, res.attempted)
	for _, l := range res.lines {
		fmt.Println("  " + l)
	}
	for i, v := range res.verdicts {
		fmt.Printf("  ladder rung %d: %g jobs/s offered, e2e p99 %.3f ms (limit %g), backlog growing %v, valid %v\n",
			i, b.w.ladder[i].rate, v.e2eP99MS, b.w.limitMS, v.growing, v.valid)
	}
	switch rate, ok := maxRate(b.w.ladder, res.verdicts, b.w.limitMS); {
	case ok:
		fmt.Printf("  max_rate_jobs_s %g jobs/s (offered rate of the highest passing rung)\n", rate)
	case len(b.w.ladder) < 2:
		fmt.Println("  max_rate_jobs_s not applicable: this workload offers one rate only")
	default:
		fmt.Println("  max_rate_jobs_s none: the nominal rung failed")
	}
}

// Distributed demonstrates the paper's §6 outlook: the same autonomic
// controller scaling a (simulated) cluster instead of a thread pool. A
// centralized coordinator ships skeleton tasks to worker nodes over links
// with configurable latency; when the WCT goal would be missed, the
// controller provisions more nodes mid-run, and decommissions them when the
// goal is safe. The cluster is the simulator's multi-node mode, so the whole
// run happens in deterministic virtual time.
//
//	go run ./examples/distributed -goal 80ms -maxnodes 8 -ship 200us
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"skandium/internal/core"
	"skandium/internal/estimate"
	"skandium/internal/event"
	"skandium/internal/muscle"
	"skandium/internal/sim"
	"skandium/internal/skel"
	"skandium/internal/statemachine"
)

func main() {
	goal := flag.Duration("goal", 80*time.Millisecond, "WCT QoS goal")
	maxNodes := flag.Int("maxnodes", 8, "maximum cluster size")
	ship := flag.Duration("ship", 200*time.Microsecond, "one-way task shipping latency")
	work := flag.Duration("work", 6*time.Millisecond, "per-item compute time")
	flag.Parse()

	// The paper's two-level map shape with shared muscles.
	fs := muscle.NewSplit("fs", func(p any) ([]any, error) {
		out := make([]any, 4)
		for i := range out {
			out[i] = i
		}
		return out, nil
	})
	fe := muscle.NewExecute("fe", func(p any) (any, error) { return 1, nil })
	fm := muscle.NewMerge("fm", func(ps []any) (any, error) {
		s := 0
		for _, p := range ps {
			s += p.(int)
		}
		return s, nil
	})
	inner := skel.NewMap(fs, skel.NewSeq(fe), fm)
	program := skel.NewMap(fs, inner, fm)
	fmt.Println("program:", program)
	fmt.Printf("cluster: 1 node initially, up to %d, ship latency %v each way\n", *maxNodes, *ship)

	// Only the execute muscle computes; every muscle, wherever it runs,
	// pays the round trip to its node.
	costs := sim.CostFunc(func(m *muscle.Muscle, _ any) time.Duration {
		if m == fe {
			return *work
		}
		return 0
	})
	nodes := make([]sim.NodeSpec, *maxNodes)
	for i := range nodes {
		nodes[i] = sim.NodeSpec{Threads: 1, Link: *ship}
	}
	reg := event.NewRegistry()
	cluster := sim.NewEngine(sim.Config{Events: reg, Costs: costs, Nodes: nodes, LP: 1, MaxLP: *maxNodes})

	est := estimate.NewRegistry(nil)
	tracker := statemachine.NewTracker(est)
	ctl := core.NewController(core.Config{
		WCTGoal:          *goal,
		MaxLP:            *maxNodes,
		Policy:           core.PaperPolicy{Increase: core.IncreaseMinimal},
		AnalysisInterval: 10 * time.Millisecond,
		DecreaseHold:     15 * time.Millisecond,
	}, program, cluster, est, tracker, cluster.Clock())
	start := cluster.Now()
	ctl.SetStart(start)
	core.Attach(reg, tracker, ctl)

	res, makespan, err := cluster.Run(program, 0)
	if err != nil {
		log.Fatal(err)
	}

	verdict := "met"
	if makespan > *goal {
		verdict = "MISSED"
	}
	fmt.Printf("result %v in %v virtual (goal %v %s; 16 work items × %v sequential = %v)\n",
		res, makespan, *goal, verdict, *work, 16**work)
	for _, d := range ctl.Decisions() {
		fmt.Printf("  t=%-10v nodes %d -> %d  (%s)\n",
			d.Time.Sub(start), d.OldLP, d.NewLP, d.Reason)
	}
}

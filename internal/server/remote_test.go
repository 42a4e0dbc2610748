package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"skandium/internal/remote"
)

// newTestCluster serves in-process workers over loopback HTTP and builds a
// coordinator on them, returning the worker servers for mid-test sabotage.
func newTestClusterDaemon(t *testing.T, workers int) (*Server, *httptest.Server, []*httptest.Server) {
	t.Helper()
	var endpoints []string
	wss := make([]*httptest.Server, workers)
	for i := range wss {
		w := remote.NewWorker(remote.WorkerConfig{LP: 2, MaxLP: 4})
		ws := httptest.NewServer(w.Handler())
		t.Cleanup(func() { ws.Close(); w.Close() })
		wss[i] = ws
		endpoints = append(endpoints, ws.URL)
	}
	cl, err := remote.New(remote.Config{
		Workers:       endpoints,
		Budget:        4,
		ProbeInterval: 25 * time.Millisecond,
		Rebalance:     25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	srv, ts := newTestDaemon(t, Config{Budget: 4, Cluster: cl})
	return srv, ts, wss
}

// waitJobDone waits until the job reaches a terminal state and returns its
// outcome record.
func waitJobDone(t *testing.T, j *job) *outcome {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if out := j.snapshot().out; out != nil {
			return out
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never finished")
	return nil
}

// jobEvents renders a job's full event log as one string.
func jobEvents(j *job) string {
	recs, _, _, _ := j.log.snapshot(0)
	var sb strings.Builder
	for _, r := range recs {
		sb.WriteString(r.Ev)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestServerRoutesEligibleJobToCluster: a goal-less sleepgrid routes to the
// workers, completes with the right result, and the daemon's metrics and
// health endpoints expose the per-node cluster state.
func TestServerRoutesEligibleJobToCluster(t *testing.T) {
	srv, ts, _ := newTestClusterDaemon(t, 2)

	j, err := srv.Submit(SubmitSpec{
		Skeleton: "sleepgrid",
		Params:   map[string]any{"k": 4, "m": 4, "cell_ms": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := waitJobDone(t, j)
	if out.err != "" {
		t.Fatal(out.err)
	}
	if out.result != "16" {
		t.Fatalf("result %q, want 16 surviving cells", out.result)
	}
	if evs := jobEvents(j); !strings.Contains(evs, "cluster@route") {
		t.Fatalf("event log lacks the cluster routing marker:\n%s", evs)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"skelrund_cluster_budget 4",
		"skelrund_cluster_node_up{node=",
		"skelrund_cluster_node_tasks_total{node=",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, body)
		}
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"cluster"`) || !strings.Contains(string(body), `"healthy": 2`) {
		t.Fatalf("/healthz lacks the cluster section:\n%s", body)
	}
}

// TestServerKeepsGoalJobsLocal: a WCT goal needs the local controller, so
// the job must not route to the cluster.
func TestServerKeepsGoalJobsLocal(t *testing.T) {
	srv, _, _ := newTestClusterDaemon(t, 1)
	j, err := srv.Submit(SubmitSpec{
		Skeleton: "sleepgrid",
		Params:   map[string]any{"k": 2, "m": 2, "cell_ms": 1},
		Goal:     500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out := waitJobDone(t, j); out.err != "" {
		t.Fatal(out.err)
	}
	if evs := jobEvents(j); strings.Contains(evs, "cluster@route") {
		t.Fatal("goal-bearing job was routed to the cluster")
	}
}

// TestServerNodeLossInJobLog: killing a worker mid-job lands a node-down
// record in the running job's event log, and the job still completes on
// the survivor.
func TestServerNodeLossInJobLog(t *testing.T) {
	srv, _, wss := newTestClusterDaemon(t, 2)

	j, err := srv.Submit(SubmitSpec{
		Skeleton: "sleepgrid",
		Params:   map[string]any{"k": 6, "m": 4, "cell_ms": 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(150*time.Millisecond, wss[1].CloseClientConnections)
	time.AfterFunc(160*time.Millisecond, wss[1].Close)

	out := waitJobDone(t, j)
	if out.err != "" {
		t.Fatalf("job failed despite a surviving worker: %s", out.err)
	}
	if out.result != "24" {
		t.Fatalf("result %q, want 24", out.result)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if evs := jobEvents(j); strings.Contains(evs, "cluster@node-down") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no node-down record in the job event log:\n%s", jobEvents(j))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
)

// reference computes each job's expected result independently of the
// program: montecarlo hit counts by re-drawing the seeded batches, sleepgrid
// tallies as k×m. Hit counts depend only on (samples, batches), so they are
// memoised.
type reference struct {
	mu   sync.Mutex
	hits map[[2]int]int
}

func newReference() *reference { return &reference{hits: map[[2]int]int{}} }

// intParam reads an integer parameter as either a Go int (generated here)
// or a JSON number (decoded from a job view).
func intParam(p map[string]any, key string) (int, error) {
	switch v := p[key].(type) {
	case int:
		return v, nil
	case float64:
		return int(v), nil
	}
	return 0, fmt.Errorf("parameter %q missing or not a number", key)
}

// expect returns the job's correct result as the daemon summarises it.
func (r *reference) expect(req submitReq) (string, error) {
	switch req.Skeleton {
	case "montecarlo":
		samples, err := intParam(req.Params, "samples")
		if err != nil {
			return "", err
		}
		batches, err := intParam(req.Params, "batches")
		if err != nil {
			return "", err
		}
		return strconv.Itoa(r.montecarlo(samples, batches)), nil
	case "sleepgrid":
		k, err := intParam(req.Params, "k")
		if err != nil {
			return "", err
		}
		m, err := intParam(req.Params, "m")
		if err != nil {
			return "", err
		}
		return strconv.Itoa(k * m), nil
	}
	return "", fmt.Errorf("no reference for skeleton %q", req.Skeleton)
}

// montecarlo counts the hits of batches seeded 1..batches with
// samples/batches points each, the catalog's batch definition.
func (r *reference) montecarlo(samples, batches int) int {
	key := [2]int{samples, batches}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hits[key]; ok {
		return h
	}
	total := 0
	for i := 0; i < batches; i++ {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		for n := 0; n < samples/batches; n++ {
			x, y := rng.Float64(), rng.Float64()
			if x*x+y*y <= 1 {
				total++
			}
		}
	}
	r.hits[key] = total
	return total
}

// check reports whether a finished job's result matches the reference.
func (r *reference) check(req submitReq, state, result string) error {
	if state != "done" {
		return fmt.Errorf("state %q, want done", state)
	}
	want, err := r.expect(req)
	if err != nil {
		return err
	}
	if result != want {
		return fmt.Errorf("result %q, want %q", result, want)
	}
	return nil
}

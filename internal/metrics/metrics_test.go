package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"

	"skandium/internal/clock"
)

func at(ms int) time.Time { return clock.Epoch.Add(time.Duration(ms) * time.Millisecond) }

func TestRecorderSeries(t *testing.T) {
	r := NewRecorder()
	r.SetStart(at(0))
	r.Gauge(at(0), 1, 1)
	r.Gauge(at(10), 2, 4)
	r.Gauge(at(20), 2, 4) // duplicate level: collapsed in series
	r.Gauge(at(30), 0, 4)

	active := r.ActiveSeries(time.Millisecond)
	want := []Point{{0, 1}, {10, 2}, {30, 0}}
	if len(active) != len(want) {
		t.Fatalf("series %v, want %v", active, want)
	}
	for i := range want {
		if active[i] != want[i] {
			t.Fatalf("series[%d] = %v, want %v", i, active[i], want[i])
		}
	}
	lp := r.LPSeries(time.Millisecond)
	if len(lp) != 2 || lp[0] != (Point{0, 1}) || lp[1] != (Point{10, 4}) {
		t.Fatalf("lp series %v", lp)
	}
}

func TestRecorderPeaks(t *testing.T) {
	r := NewRecorder()
	r.Gauge(at(0), 1, 2)
	r.Gauge(at(5), 7, 8)
	r.Gauge(at(9), 3, 4)
	if r.PeakActive() != 7 {
		t.Fatalf("peak active %d", r.PeakActive())
	}
	if r.PeakLP() != 8 {
		t.Fatalf("peak LP %d", r.PeakLP())
	}
}

func TestSamplesSortedEvenIfLate(t *testing.T) {
	r := NewRecorder()
	r.SetStart(at(0))
	r.Gauge(at(20), 2, 2)
	r.Gauge(at(10), 1, 1) // late arrival (concurrent gauges can race)
	s := r.Samples()
	if len(s) != 2 || s[0].T.After(s[1].T) {
		t.Fatalf("samples unsorted: %v", s)
	}
}

func TestCSV(t *testing.T) {
	r := NewRecorder()
	r.SetStart(at(0))
	r.Gauge(at(0), 1, 1)
	r.Gauge(at(1500), 3, 4)
	csv := r.CSV(time.Second)
	if !strings.HasPrefix(csv, "t,active,lp\n") {
		t.Fatalf("missing header: %q", csv)
	}
	if !strings.Contains(csv, "1.5000,3,4") {
		t.Fatalf("missing row: %q", csv)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Gauge(at(i), w, w+1)
			}
		}(w)
	}
	wg.Wait()
	if len(r.Samples()) != 2000 {
		t.Fatalf("lost samples: %d", len(r.Samples()))
	}
}

func TestAutoStart(t *testing.T) {
	r := NewRecorder()
	r.Gauge(at(100), 1, 1) // first sample anchors t=0
	pts := r.ActiveSeries(time.Millisecond)
	if len(pts) != 1 || pts[0].T != 0 {
		t.Fatalf("auto-start series: %v", pts)
	}
}

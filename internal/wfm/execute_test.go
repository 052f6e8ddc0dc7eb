package wfm

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
)

// TestPhaseBarrier checks the phases release policy itself: with a
// worker cap and a TaskGate in the way, no task of level k+1 starts
// before every task of level k has ended and the inter-phase delay has
// elapsed.
func TestPhaseBarrier(t *testing.T) {
	drive := sharedfs.NewMem()
	srv, _, _ := stubService(t, drive, 2*time.Millisecond)
	m := fastManager(t, drive, func(o *Options) {
		o.MaxParallel = 2
		o.Gate = newCountingGate(3)
		o.PhaseDelay = 5 // 10ms at TimeScale 0.002
	})
	w := diamondWorkflow(t, 3, 4, srv.URL)
	res, err := m.Run(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	lastEnd := map[int]time.Duration{}
	firstStart := map[int]time.Duration{}
	for name, tr := range res.Tasks {
		if name == HeaderName || name == TailName {
			continue
		}
		if tr.End > lastEnd[tr.Phase] {
			lastEnd[tr.Phase] = tr.End
		}
		if s, ok := firstStart[tr.Phase]; !ok || tr.Start < s {
			firstStart[tr.Phase] = tr.Start
		}
	}
	delay := m.scaled(m.opts.PhaseDelay)
	for k := 1; k < len(lastEnd); k++ {
		if want := lastEnd[k] + delay; firstStart[k+1] < want {
			t.Fatalf("level %d started at %v, before level %d drained (%v) plus the %v delay",
				k+1, firstStart[k+1], k, lastEnd[k], delay)
		}
	}
}

// TestCancelledRunReportsWall checks that a run stopped part-way still
// reports how long it ran: cancelled after its first completion in both
// modes, and aborted on missing inputs in phase mode.
func TestCancelledRunReportsWall(t *testing.T) {
	for _, mode := range []Scheduling{SchedulePhases, ScheduleDependency} {
		t.Run(mode.String(), func(t *testing.T) {
			drive := sharedfs.NewMem()
			srv, _, _ := stubService(t, drive, time.Millisecond)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			m := fastManager(t, drive, func(o *Options) {
				o.Scheduling = mode
				o.AfterTaskDone = func(n int) {
					if n == 1 {
						cancel()
					}
				}
			})
			res, err := m.Run(ctx, chainWorkflow(t, 6, srv.URL))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if res.Wall <= 0 || res.Makespan <= 0 {
				t.Fatalf("cancelled run: wall %v, makespan %v; want both > 0", res.Wall, res.Makespan)
			}
		})
	}
	t.Run("phases-missing-inputs", func(t *testing.T) {
		drive := sharedfs.NewMem()
		srv, _, _ := stubService(t, drive, time.Millisecond)
		m := fastManager(t, drive, func(o *Options) {
			o.SkipStageInputs = true
			o.InputWait = 0.5
		})
		res, err := m.Run(context.Background(), translated(t, "blast", 8, srv.URL))
		if err == nil || !strings.Contains(err.Error(), "inputs missing") {
			t.Fatalf("err = %v, want a missing-input abort", err)
		}
		if res.Wall <= 0 || res.Makespan <= 0 {
			t.Fatalf("aborted run: wall %v, makespan %v; want both > 0", res.Wall, res.Makespan)
		}
	})
}

// TestDependencyFailurePropagatesToDescendants: under ContinueOnError a
// failed root's descendants are skipped, never invoked.
func TestDependencyFailurePropagatesToDescendants(t *testing.T) {
	drive := sharedfs.NewMem()
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req wfbench.Request
		json.NewDecoder(r.Body).Decode(&req)
		calls.Add(1)
		if strings.HasPrefix(req.Name, "split_fasta") {
			http.Error(w, "boom", http.StatusBadRequest) // non-retriable
			return
		}
		for name, size := range req.Out {
			drive.WriteFile(name, size)
		}
		json.NewEncoder(w).Encode(&wfbench.Response{Name: req.Name, OK: true})
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	m := depManager(t, drive, func(o *Options) { o.ContinueOnError = true })
	w := translated(t, "blast", 8, srv.URL)
	res, err := m.Run(context.Background(), w)
	if err == nil {
		t.Fatal("failed root reported success")
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want only the failing root", calls.Load())
	}
	if len(res.Failed) != w.Len() {
		t.Fatalf("failed = %d, want all %d (root + skipped)", len(res.Failed), w.Len())
	}
	for name, tr := range res.Tasks {
		if name == HeaderName || name == TailName || strings.HasPrefix(name, "split_fasta") {
			continue
		}
		if tr.Err == nil || !strings.Contains(tr.Err.Error(), "skipped") {
			t.Fatalf("task %s: err = %v, want skip", name, tr.Err)
		}
	}
}

// TestDependencyMaxParallel: the worker pool never exceeds MaxParallel
// concurrent invocations.
func TestDependencyMaxParallel(t *testing.T) {
	drive := sharedfs.NewMem()
	srv, _, maxActive := stubService(t, drive, 5*time.Millisecond)
	m := depManager(t, drive, func(o *Options) { o.MaxParallel = 2 })
	if _, err := m.Run(context.Background(), translated(t, "seismology", 20, srv.URL)); err != nil {
		t.Fatal(err)
	}
	if maxActive.Load() > 2 {
		t.Fatalf("max active = %d, want <= 2", maxActive.Load())
	}
}

// TestDependencyWritesAllOutputs: a dependency-mode run leaves every
// task's outputs on the shared drive.
func TestDependencyWritesAllOutputs(t *testing.T) {
	drive := sharedfs.NewMem()
	srv, _, _ := stubService(t, drive, time.Millisecond)
	w := translated(t, "epigenomics", 30, srv.URL)
	if _, err := depManager(t, drive, nil).Run(context.Background(), w); err != nil {
		t.Fatal(err)
	}
	for _, name := range w.TaskNames() {
		for _, out := range w.Tasks[name].OutputFiles() {
			if !drive.Exists(out) {
				t.Fatalf("missing output %s", out)
			}
		}
	}
}

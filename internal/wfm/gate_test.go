package wfm

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfformat"
)

// countingGate is a TaskGate that enforces and records a concurrency
// cap, and checks Acquire/Release stay balanced.
type countingGate struct {
	sem      chan struct{}
	held     atomic.Int64
	peak     atomic.Int64
	grants   atomic.Int64
	releases atomic.Int64
}

func newCountingGate(slots int) *countingGate {
	return &countingGate{sem: make(chan struct{}, slots)}
}

func (g *countingGate) Acquire(ctx context.Context) error {
	select {
	case g.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	g.grants.Add(1)
	n := g.held.Add(1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			return nil
		}
	}
}

func (g *countingGate) Release() {
	g.releases.Add(1)
	g.held.Add(-1)
	<-g.sem
}

// TestGateBoundsBothModes runs a wide fanout through a 3-slot gate in
// both scheduling modes and checks the gate bounds concurrency, is
// acquired once per task, and ends balanced.
func TestGateBoundsBothModes(t *testing.T) {
	for _, mode := range []Scheduling{SchedulePhases, ScheduleDependency} {
		t.Run(mode.String(), func(t *testing.T) {
			drive := sharedfs.NewMem()
			srv, _, maxActive := stubService(t, drive, 2*time.Millisecond)
			w := fanoutWorkflow(t, 16, srv.URL)
			gate := newCountingGate(3)
			m := fastManager(t, drive, func(o *Options) {
				o.Scheduling = mode
				o.Gate = gate
				o.MaxParallel = 64
			})
			res, err := m.Run(context.Background(), w)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Failed) != 0 {
				t.Fatalf("failed = %v", res.Failed)
			}
			tasks := int64(w.Len())
			if g := gate.grants.Load(); g != tasks {
				t.Fatalf("gate granted %d times, want once per task (%d)", g, tasks)
			}
			if r := gate.releases.Load(); r != gate.grants.Load() {
				t.Fatalf("unbalanced gate: %d grants, %d releases", gate.grants.Load(), r)
			}
			if p := gate.peak.Load(); p > 3 {
				t.Fatalf("gate admitted %d concurrent tasks, cap is 3", p)
			}
			if maxActive.Load() > 3 {
				t.Fatalf("endpoint saw %d concurrent invocations through a 3-slot gate", maxActive.Load())
			}
		})
	}
}

// blockedGate never grants: Acquire returns only on ctx cancellation.
type blockedGate struct{}

func (blockedGate) Acquire(ctx context.Context) error {
	<-ctx.Done()
	return ctx.Err()
}
func (blockedGate) Release() {}

// TestGateAcquireCancellation checks that a run whose gate never
// grants fails cleanly (as a cancellation, not a hang) in both modes.
func TestGateAcquireCancellation(t *testing.T) {
	for _, mode := range []Scheduling{SchedulePhases, ScheduleDependency} {
		t.Run(mode.String(), func(t *testing.T) {
			drive := sharedfs.NewMem()
			srv, _, _ := stubService(t, drive, 0)
			w := fanoutWorkflow(t, 4, srv.URL)
			m := fastManager(t, drive, func(o *Options) {
				o.Scheduling = mode
				o.Gate = blockedGate{}
			})
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, err := m.Run(ctx, w)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("run succeeded through a gate that never grants")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("run hung on a cancelled gate")
			}
		})
	}
}

// TestGateSharedAcrossManagers is the embedding contract wfmd relies
// on: many Managers dispatching through one gate never exceed the
// shared budget combined.
func TestGateSharedAcrossManagers(t *testing.T) {
	drive := sharedfs.NewMem()
	srv, _, maxActive := stubService(t, drive, 2*time.Millisecond)
	gate := newCountingGate(4)
	const managers = 3
	var wg sync.WaitGroup
	errs := make([]error, managers)
	for i := 0; i < managers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := prefixedFanout(t, fmt.Sprintf("shared%d", i), 10, srv.URL)
			m := fastManager(t, drive, func(o *Options) {
				o.Scheduling = ScheduleDependency
				o.Gate = gate
				o.MaxParallel = 32
			})
			_, errs[i] = m.Run(context.Background(), w)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("manager %d: %v", i, err)
		}
	}
	if p := gate.peak.Load(); p > 4 {
		t.Fatalf("combined concurrency %d through a 4-slot shared gate", p)
	}
	if maxActive.Load() > 4 {
		t.Fatalf("endpoint saw %d concurrent invocations, shared budget is 4", maxActive.Load())
	}
	if g, r := gate.grants.Load(), gate.releases.Load(); g != r || g != managers*11 {
		t.Fatalf("grants %d releases %d, want %d each", g, r, managers*11)
	}
}

// prefixedFanout is fanoutWorkflow with namespaced task and file
// names, so concurrent runs share one drive without colliding.
func prefixedFanout(t testing.TB, prefix string, width int, url string) *wfformat.Workflow {
	t.Helper()
	w := wfformat.New(prefix)
	root := prefix + "_root"
	synthAdd(t, w, synthTask(root, url, nil))
	for i := 0; i < width; i++ {
		name := fmt.Sprintf("%s_f%03d", prefix, i)
		synthAdd(t, w, synthTask(name, url, []string{"out_" + root}))
		synthLink(t, w, root, name)
	}
	return w
}

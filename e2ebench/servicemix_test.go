package main

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"wfserverless/internal/wfgen"
)

func TestScheduleIsSeededWithFixedCountAndRepeatShare(t *testing.T) {
	const window = 100 * time.Second
	a := schedule(7, svcRate, window, svcPool, svcRepeatShare)
	if !reflect.DeepEqual(a, schedule(7, svcRate, window, svcPool, svcRepeatShare)) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a[:10], schedule(8, svcRate, window, svcPool, svcRepeatShare)[:10]) {
		t.Fatal("two seeds gave the same schedule")
	}
	n := int(svcRate * window.Seconds())
	if len(a) != n {
		t.Fatalf("%d arrivals in %v at %v/s, want %d", len(a), window, svcRate, n)
	}
	repeats, fresh := 0, 0
	tenants := map[string]int{}
	var gaps []float64
	for i, x := range a {
		if x.Due < 0 || x.Due >= window || (i > 0 && x.Due < a[i-1].Due) {
			t.Fatalf("arrival %d due at %v: out of order or outside the window", i, x.Due)
		}
		if i > 0 {
			gaps = append(gaps, (x.Due - a[i-1].Due).Seconds())
		}
		tenants[x.Tenant]++
		if x.Repeat {
			if x.Index != repeats%svcPool {
				t.Fatalf("repeat %d submits pool workflow %d, want %d", i, x.Index, repeats%svcPool)
			}
			repeats++
			continue
		}
		if x.Index != fresh {
			t.Fatalf("fresh arrival %d has instance %d, want %d", i, x.Index, fresh)
		}
		fresh++
	}
	if want := int(float64(n)*svcRepeatShare + 0.5); repeats != want {
		t.Errorf("%d repeats of %d, want %d", repeats, n, want)
	}
	if len(tenants) != len(svcTenants) {
		t.Errorf("submissions went to %d tenants, want %d", len(tenants), len(svcTenants))
	}
	// Gaps of a Poisson process are exponential: their mean is 1/rate
	// and so is their standard deviation.
	mean, sd := meanSD(gaps)
	if math.Abs(mean*svcRate-1) > 0.05 || math.Abs(sd*svcRate-1) > 0.1 {
		t.Errorf("gaps have mean %.4fs and sd %.4fs, want both near %.4fs", mean, sd, 1/svcRate)
	}
}

func meanSD(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(sd / float64(len(xs)-1))
}

func TestOpenLoopSendsOnScheduleAndRecordsLateness(t *testing.T) {
	ms := time.Millisecond
	arrivals := []arrival{{Due: 0}, {Due: 10 * ms}, {Due: 20 * ms}, {Due: 60 * ms}}
	start := time.Now()
	sent := make([]time.Duration, len(arrivals))
	late := openLoop(context.Background(), start, arrivals, func(i int) {
		sent[i] = time.Since(start)
		if i == 0 {
			time.Sleep(25 * ms) // a stalled send holds up the next two
		}
	})
	if len(late) != len(arrivals) {
		t.Fatalf("%d lateness samples for %d arrivals", len(late), len(arrivals))
	}
	for i, a := range arrivals {
		if sent[i] < a.Due {
			t.Errorf("arrival %d sent at %v, before it was due at %v", i, sent[i], a.Due)
		}
		if late[i] < 0 || late[i] > sent[i]-a.Due+ms {
			t.Errorf("arrival %d: lateness %v, sent %v after due", i, late[i], sent[i]-a.Due)
		}
	}
	// Arrival 1 was due at 10ms but could not start before 25ms.
	if late[1] < 15*ms {
		t.Errorf("arrival 1 was held up by a 25ms send but is only %v late", late[1])
	}
	if late[2] < 5*ms {
		t.Errorf("arrival 2 was held up to 25ms but is only %v late", late[2])
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got := openLoop(ctx, time.Now(), []arrival{{Due: time.Hour}}, func(int) { t.Error("sent after cancel") }); len(got) != 0 {
		t.Errorf("cancelled loop returned %d samples", len(got))
	}
}

func TestExpectedHitsCountsEveryTaskOfEveryRepeat(t *testing.T) {
	poolTasks := []int{200, 203, 197}
	arrivals := []arrival{
		{Repeat: true, Index: 0},
		{Index: 0}, // fresh: executes, no hits
		{Repeat: true, Index: 1},
		{Repeat: true, Index: 0},
		{Index: 1},
	}
	if got, want := expectedHits(arrivals, poolTasks), 200+203+200; got != want {
		t.Errorf("expected hits %d, want %d", got, want)
	}
	if got := expectedHits(nil, poolTasks); got != 0 {
		t.Errorf("no arrivals, %d hits", got)
	}
}

// Two seeds of one recipe share file names, which is why every
// submitted instance is tagged.
func TestTagWorkflowSeparatesInstancesOfOneRecipe(t *testing.T) {
	gen := func(seed int64, tag string) map[string]bool {
		w, err := wfgen.Generate(wfgen.Spec{Recipe: "blast", NumTasks: svcTasks, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if tag != "" {
			tagWorkflow(w, tag)
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("tagged workflow invalid: %v", err)
		}
		names := map[string]bool{}
		for _, task := range w.Tasks {
			for _, f := range task.Files {
				if !strings.HasPrefix(f.Name, tag) {
					t.Fatalf("file %s lacks tag %q", f.Name, tag)
				}
				names[f.Name] = true
			}
			for _, a := range task.Command.Arguments {
				for out := range a.Out {
					if !names[out] {
						t.Fatalf("output %s of %s is not among its files", out, task.Name)
					}
				}
			}
		}
		return names
	}
	shared := func(a, b map[string]bool) int {
		n := 0
		for k := range a {
			if b[k] {
				n++
			}
		}
		return n
	}
	if shared(gen(1, ""), gen(2, "")) == 0 {
		t.Fatal("untagged instances share no file names; the tag would be unnecessary")
	}
	if n := shared(gen(1, "p000-"), gen(2, "p001-")); n != 0 {
		t.Errorf("tagged instances share %d file names", n)
	}
}

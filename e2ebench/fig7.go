package main

// paper-fig7: the paper's headline comparison, Kn10wNoPM against
// LC10wNoPM on all seven recipes at one size, with phase scheduling and
// the default Tunables. Each cell parses the recipe's workflow JSON and
// runs it through experiments.RunWorkflow on a fresh paper-testbed
// cluster. Wall time here is modeled time compressed by TimeScale, so
// this workload moves with the autoscaler, cold starts and the
// scheduling policy, and should not move when per-task CPU overhead is
// cut.

import (
	"context"
	"fmt"
	"time"

	"wfserverless/internal/core"
	"wfserverless/internal/experiments"
	"wfserverless/internal/metrics"
	"wfserverless/internal/recipes"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfformat"
	"wfserverless/internal/wfgen"
)

const (
	// fig7Tasks is the requested size of every recipe instance.
	fig7Tasks = 60
	// fig7Setups is how many times each repetition generates its inputs.
	fig7Setups = 5
)

var fig7Paradigms = []experiments.Paradigm{experiments.Kn10wNoPM, experiments.LC10wNoPM}

// fig7Input is one recipe's workflow as cmd/wfgen -target json writes it.
type fig7Input struct {
	recipe string
	json   []byte
}

func fig7Inputs(seed int64) ([]fig7Input, error) {
	var out []fig7Input
	for _, name := range recipes.Names() {
		w, err := wfgen.Generate(wfgen.Spec{Recipe: name, NumTasks: fig7Tasks, Seed: seed})
		if err != nil {
			return nil, err
		}
		data, err := w.Marshal()
		if err != nil {
			return nil, err
		}
		out = append(out, fig7Input{name, data})
	}
	return out, nil
}

// fig7Sums are one repetition's resource totals over the seven recipes.
type fig7Sums struct{ makespan, coreS, memGBS, energyKJ float64 }

func (s *fig7Sums) add(m *experiments.Measurement) {
	s.makespan += m.MakespanS
	s.coreS += m.MeanCPUCores * m.MakespanS
	s.memGBS += m.MeanMemGB * m.MakespanS
	s.energyKJ += m.EnergyJ / 1000
}

func runFig7(ctx context.Context, o options) (*report, error) {
	tn := experiments.DefaultTunables()
	specs := make([]experiments.Spec, len(fig7Paradigms))
	for i, id := range fig7Paradigms {
		s, err := experiments.ByID(id)
		if err != nil {
			return nil, err
		}
		specs[i] = s
	}
	var tw *fig7Tracer
	if o.Rec != nil {
		tw = newFig7Tracer(o.Rec)
	}

	rep := newReport()
	var setup, submit, lat, tput, rss []float64
	var kn, lc []fig7Sums
	var parsed []*wfformat.Workflow
	var firstInputs []fig7Input
	var before procSnap
	tasks := 0
	start := time.Now()
	for i := 0; i < minReps || time.Since(start).Seconds() < o.Seconds; i++ {
		// Set-up is only input generation, milliseconds long, so it is
		// repeated to give its median enough samples.
		var inputs []fig7Input
		for k := 0; k < fig7Setups; k++ {
			t := time.Now()
			var err error
			if inputs, err = fig7Inputs(o.Seed); err != nil {
				return nil, err
			}
			setup = append(setup, time.Since(t).Seconds())
		}
		if err := settle(); err != nil {
			return nil, err
		}
		if i == 0 {
			firstInputs = inputs
			before = snapProc()
		}
		// Every cell's workflow is submitted, parsed and validated,
		// before the first cell runs: a parse of a few milliseconds
		// taken just after a cell reads the previous session's
		// shutdown, not the parser.
		type cell struct {
			w        *wfformat.Workflow
			submitMS float64
		}
		cells := make([][2]cell, len(inputs))
		for j, in := range inputs {
			for k := range specs {
				t0 := time.Now()
				w, err := wfformat.Parse(in.json)
				if err == nil {
					err = w.Validate()
				}
				if err != nil {
					return nil, fmt.Errorf("paper-fig7: %s: %w", in.recipe, err)
				}
				cells[j][k] = cell{w, msSince(t0)}
				submit = append(submit, cells[j][k].submitMS)
			}
		}
		var sums [2]fig7Sums
		repTasks, repMS := 0, 0.0
		for j, in := range inputs {
			var perParadigm [2]*experiments.Measurement
			for k, spec := range specs {
				rep.Attempted++
				w := cells[j][k].w
				t0 := time.Now()
				var err error
				var m *experiments.Measurement
				if tw != nil {
					m, err = tw.run(ctx, spec, w, tn)
				} else {
					m, err = experiments.RunWorkflow(ctx, spec, w, tn)
				}
				ms := cells[j][k].submitMS + msSince(t0)
				lat = append(lat, ms)
				if i == 0 && k == 0 {
					parsed = append(parsed, w)
				}
				if err != nil || m.Failures > 0 {
					rep.Failed++
					rep.problem("paper-fig7: %s on %s did not complete: %v (%d failed invocations)", in.recipe, spec.ID, err, failuresOf(m))
					continue
				}
				perParadigm[k] = m
				sums[k].add(m)
				repTasks += w.Len()
				repMS += ms
			}
			checkFig7Cell(rep, in.recipe, perParadigm)
		}
		tasks += repTasks
		kn, lc = append(kn, sums[0]), append(lc, sums[1])
		tput = append(tput, float64(repTasks)/(repMS/1e3))
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss = append(rss, peak)
	}
	after := snapProc()

	n := len(kn)
	rep.endToEnd(setup, rss, metric{Value: medianOf(tput), N: n,
		Note: fmt.Sprintf("n=%d, tasks over summed cell wall time", n)}, submit, lat)
	for _, side := range []struct {
		prefix string
		sums   []fig7Sums
	}{{"kn", kn}, {"lc", lc}} {
		pick := func(f func(fig7Sums) float64) []float64 {
			var out []float64
			for _, s := range side.sums {
				out = append(out, f(s))
			}
			return out
		}
		rep.E2E[side.prefix+"_makespan_s"] = metric{Value: medianOf(pick(func(s fig7Sums) float64 { return s.makespan })), Unit: "s", N: n}
		rep.E2E[side.prefix+"_core_s"] = metric{Value: medianOf(pick(func(s fig7Sums) float64 { return s.coreS })), Unit: "core*s", N: n}
		rep.E2E[side.prefix+"_mem_gb_s"] = metric{Value: medianOf(pick(func(s fig7Sums) float64 { return s.memGBS })), Unit: "GB*s", N: n}
		rep.E2E[side.prefix+"_energy_kj"] = metric{Value: medianOf(pick(func(s fig7Sums) float64 { return s.energyKJ })), Unit: "kJ", N: n}
	}

	if tw != nil {
		l := layerVals{}
		l["wfformat.parse_ms"] = medianOf(tw.parseMS(firstInputs))
		if err := dagLayer(l, parsed...); err != nil {
			return nil, err
		}
		tw.fill(l, tasks)
		l.procLayer(before.to(after), tasks)
		// Counts and busy times are per repetition, as on the other
		// workloads.
		for _, k := range []string{
			"container.requests", "container.failures",
			"serverless.requests", "serverless.failures", "serverless.cold_starts", "serverless.scale_stalls",
			"wfbench.engine_calls", "wfbench.engine_busy_ms",
			"sharedfs.writes", "sharedfs.stats", "sharedfs.hashes", "sharedfs.busy_ms",
			"proc.gc_cycles",
		} {
			l[k] /= float64(n)
		}
		l.into(rep, n)
	}
	return rep, nil
}

func failuresOf(m *experiments.Measurement) int64 {
	if m == nil {
		return 0
	}
	return m.Failures
}

// checkFig7Cell checks the paper's headline direction on one recipe:
// serverless uses fewer core-seconds and fewer GB-seconds than local
// containers. Time ratios are not checked; they depend on host load.
func checkFig7Cell(rep *report, recipe string, ms [2]*experiments.Measurement) {
	kn, lc := ms[0], ms[1]
	if kn == nil || lc == nil {
		return
	}
	var a, b fig7Sums
	a.add(kn)
	b.add(lc)
	if a.coreS >= b.coreS {
		rep.problem("paper-fig7: %s: Kn used %.1f core-s, not fewer than LC's %.1f", recipe, a.coreS, b.coreS)
	}
	if a.memGBS >= b.memGBS {
		rep.problem("paper-fig7: %s: Kn used %.1f GB-s, not fewer than LC's %.1f", recipe, a.memGBS, b.memGBS)
	}
}

// fig7Tracer runs cells with the engine and drive wrappers installed.
// experiments.RunWorkflow offers no seam for either, so run repeats
// its few lines around core.NewSession with the wrappers set in the
// session config; everything it calls is the code RunWorkflow calls.
type fig7Tracer struct {
	rec    *recorder
	engine *tracedEngine
	drives []*tracedDrive

	pods, coldStarts, stalls, knReqs, knFails, lcReqs, lcFails int64
}

func newFig7Tracer(rec *recorder) *fig7Tracer {
	return &fig7Tracer{rec: rec, engine: &tracedEngine{inner: wfbench.SimEngine{}, rec: rec}}
}

func (t *fig7Tracer) run(ctx context.Context, spec experiments.Spec, w *wfformat.Workflow, tn experiments.Tunables) (*experiments.Measurement, error) {
	cfg, err := experiments.SessionConfig(spec, tn)
	if err != nil {
		return nil, err
	}
	d := &tracedDrive{inner: sharedfs.NewMem(), rec: t.rec}
	t.drives = append(t.drives, d)
	cfg.Drive = d
	cfg.Engine = t.engine
	sess, err := core.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	m := &experiments.Measurement{Paradigm: spec.ID, Workflow: w.Name, Tasks: w.Len()}
	if err := sess.StartSampling(); err != nil {
		return nil, err
	}
	var smp *sampler
	if p := sess.Knative(); p != nil {
		smp = startSampler(func() int64 { return int64(p.Pods()) })
	}
	id, start := t.rec.begin()
	res, runErr := sess.Run(ctx, w)
	t.rec.end(id, 0, "experiments.run", string(spec.ID), start)
	sess.StopSampling()
	if p := sess.Knative(); p != nil {
		t.pods = max(t.pods, smp.finish()[0])
		m.ColdStarts, m.Requests, m.Failures, m.ScaleStalls = p.ColdStarts(), p.Requests(), p.Failures(), p.ScaleStalls()
		t.coldStarts += m.ColdStarts
		t.stalls += m.ScaleStalls
		t.knReqs += m.Requests
		t.knFails += m.Failures
	} else if rt := sess.LocalRuntime(); rt != nil {
		m.Requests, m.Failures = rt.Requests(), rt.Failures()
		t.lcReqs += m.Requests
		t.lcFails += m.Failures
	}
	if runErr != nil {
		return m, runErr
	}
	s := sess.Sampler()
	m.MakespanS = res.Makespan
	m.Wall = res.Wall
	m.EnergyJ = s.SeriesFor(metrics.MetricPower).Integral() / tn.TimeScale
	m.MeanCPUCores = s.MeanOf("cpu.usage.cores")
	m.MeanMemGB = s.MeanOf(metrics.MetricMemUsed) / float64(int64(1)<<30)
	return m, nil
}

// parseMS times wfformat.Parse on each recipe's JSON; the cells
// already parsed the same bytes without error.
func (t *fig7Tracer) parseMS(inputs []fig7Input) []float64 {
	var out []float64
	for _, in := range inputs {
		d := t.rec.timed("wfformat.parse", in.recipe, func() { _, _ = wfformat.Parse(in.json) })
		out = append(out, float64(d)/1e6)
	}
	return out
}

func (t *fig7Tracer) fill(l layerVals, tasks int) {
	l.engineLayer(t.engine)
	l.driveLayer(tasks, t.drives...)
	l["serverless.requests"] = float64(t.knReqs)
	l["serverless.failures"] = float64(t.knFails)
	l["serverless.cold_starts"] = float64(t.coldStarts)
	l["serverless.scale_stalls"] = float64(t.stalls)
	l["serverless.pods_peak"] = float64(t.pods)
	l["container.requests"] = float64(t.lcReqs)
	l["container.failures"] = float64(t.lcFails)
}

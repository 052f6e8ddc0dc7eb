package main

// fanout-100k: one root task feeding 99,999 leaves, written as JSON the
// way cmd/wfgen writes a Knative-translated workflow and run through a
// fresh wfm.Manager with dependency scheduling and batching at cmd/wfm's
// defaults, against the in-process serverless platform with pre-warmed
// pods over loopback HTTP. Tasks carry no cpu-work, so the wall time is
// the orchestration hot path alone: parse, plan, dispatch, the batch
// codec, the platform router and the shared drive.
//
// The JSON is written once per run, for a loopback address chosen up
// front, and each repetition runs in a fresh child process that serves
// the platform there. The heap of a process that has already run a
// 100k fan-out starts larger (480 MB grew to 738 MB over four
// repetitions while sizing this workload), so a peak RSS taken from a
// shared process would depend on how many repetitions came before it.
// Every child therefore pays the first-repetition cost, about 10% of
// the run time while sizing, the same way.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"wfserverless/internal/cluster"
	"wfserverless/internal/serverless"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/translator"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfformat"
	"wfserverless/internal/wfm"
)

const (
	fanoutTasks = 100_000
	// minReps is the fewest repetitions any workload measures, however
	// short --seconds is.
	minReps = 3
	// fanoutPods × fanoutWorkers is the pre-warmed platform; min and
	// max scale are equal so the autoscaler never changes it.
	fanoutPods    = 8
	fanoutWorkers = 32
)

// fanoutRep is what one child process reports.
type fanoutRep struct {
	// SetupS is the child's own set-up: platform start and pod warm-up.
	SetupS      float64   `json:"setup_s"`
	SubmitMS    float64   `json:"submit_ms"`
	RunMS       float64   `json:"run_ms"`
	Tasks       int       `json:"tasks"`
	FailedTasks int       `json:"failed_tasks"`
	PeakRSSMB   float64   `json:"peak_rss_mb"`
	Proc        procDelta `json:"proc"`
	Problems    []string  `json:"problems,omitempty"`
	Layer       layerVals `json:"layer,omitempty"`
	SpansFile   string    `json:"spans_file,omitempty"`
}

func runFanout(ctx context.Context, o options) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	genStart := time.Now()
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(o.Dir, "fanout.json")
	if err := writeFanoutJSON(path, o.Seed, "http://"+addr); err != nil {
		return nil, err
	}
	genS := time.Since(genStart).Seconds()

	var reps []fanoutRep
	start := time.Now()
	for i := 0; i < minReps || time.Since(start).Seconds() < o.Seconds; i++ {
		args := []string{"-child", path, "-addr", addr, "-trace", "0"}
		if o.Rec != nil {
			args[len(args)-1] = "1"
		}
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("fan-out repetition %d: %w", i, err)
		}
		var r fanoutRep
		if err := json.Unmarshal(lastLine(out), &r); err != nil {
			return nil, fmt.Errorf("fan-out repetition %d: reading its result: %w", i, err)
		}
		if o.Rec != nil {
			if err := o.Rec.appendFile(r.SpansFile, fmt.Sprintf("rep%d", i)); err != nil {
				return nil, err
			}
			os.Remove(r.SpansFile)
		}
		fmt.Fprintf(os.Stderr, "fanout-100k repetition %d: set-up %.3fs, submit %.1fms, run %.1fms, peak RSS %.1fMB\n",
			i, r.SetupS, r.SubmitMS, r.RunMS, r.PeakRSSMB)
		reps = append(reps, r)
	}

	rep := newReport()
	var setup, submit, lat, tput, rss []float64
	layers := map[string][]float64{}
	for _, r := range reps {
		rep.Attempted += r.Tasks
		rep.Failed += r.FailedTasks
		rep.Problems = append(rep.Problems, r.Problems...)
		setup = append(setup, genS+r.SetupS)
		submit = append(submit, r.SubmitMS)
		lat = append(lat, r.RunMS)
		tput = append(tput, float64(r.Tasks)/(r.RunMS/1e3))
		rss = append(rss, r.PeakRSSMB)
		for k, v := range r.Layer {
			layers[k] = append(layers[k], v)
		}
	}
	n := len(reps)
	rep.endToEnd(setup, rss, metric{Value: medianOf(tput), N: n,
		Note: fmt.Sprintf("n=%d, JSON in to all results out at %d tasks", n, fanoutTasks)}, submit, lat)
	med := layerVals{}
	for k, vs := range layers {
		med[k] = medianOf(vs)
	}
	med.into(rep, n)
	return rep, nil
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

// fanoutWorkflow builds the fan-out before translation: the root writes
// one file every leaf reads, and each leaf writes one file of a
// seed-drawn size.
func fanoutWorkflow(n int, seed int64) (*wfformat.Workflow, error) {
	rng := rand.New(rand.NewSource(seed))
	w := wfformat.New(fmt.Sprintf("fanout-%d-seed%d", n, seed))
	mk := func(name string, inputs []string) *wfformat.Task {
		out := name + ".out"
		size := 1 + rng.Int63n(1<<20)
		files := []wfformat.File{{Link: wfformat.LinkOutput, Name: out, SizeInBytes: size}}
		for _, in := range inputs {
			files = append(files, wfformat.File{Link: wfformat.LinkInput, Name: in, SizeInBytes: 1}) // sizes of inputs are not checked
		}
		return &wfformat.Task{
			Name: name,
			Type: wfformat.TypeCompute,
			Command: wfformat.Command{
				Program: "wfbench",
				Arguments: []wfformat.Argument{{
					Name:       name,
					PercentCPU: 0.5,
					Out:        map[string]int64{out: size},
					Inputs:     inputs,
				}},
			},
			Files:    files,
			Cores:    1,
			Category: "leaf",
		}
	}
	root := mk("root", nil)
	root.Category = "root"
	if err := w.AddTask(root); err != nil {
		return nil, err
	}
	for i := 1; i < n; i++ {
		// Zero-padded names sort in creation order, which keeps Link
		// on its append path.
		leaf := mk(fmt.Sprintf("leaf_%06d", i), []string{"root.out"})
		if err := w.AddTask(leaf); err != nil {
			return nil, err
		}
		if err := w.Link("root", leaf.Name); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// freeLoopbackAddr returns a loopback address with a port no one was
// listening on a moment ago.
func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// writeFanoutJSON writes the fan-out as cmd/wfgen -target knative
// -compact writes a generated instance, for the ingress at url.
func writeFanoutJSON(path string, seed int64, url string) error {
	raw, err := fanoutWorkflow(fanoutTasks, seed)
	if err != nil {
		return err
	}
	tw, err := translator.Knative(raw, translator.KnativeOptions{IngressURL: url, Workdir: "shared"})
	if err != nil {
		return err
	}
	payload, err := tw.MarshalCompact()
	if err != nil {
		return err
	}
	return os.WriteFile(path, payload, 0o644)
}

// fanoutChild runs one repetition in this process and prints a
// fanoutRep as its last line.
func fanoutChild(path, addr string, traced bool) int {
	r, err := fanoutOnce(path, addr, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: fan-out child:", err)
		return 1
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: fan-out child:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// fanoutOnce starts the platform, serves it at addr, where the JSON at
// path sends every task, and runs the workflow once.
func fanoutOnce(path, addr string, traced bool) (*fanoutRep, error) {
	ctx := context.Background()
	setupStart := time.Now()
	var rec *recorder
	mem := sharedfs.NewMem()
	var drive memDrive = mem
	var tdrive *tracedDrive
	popts := serverless.Options{Cluster: cluster.PaperTestbed(), Drive: mem}
	var engine *tracedEngine
	if traced {
		rec = newRecorder()
		tdrive = &tracedDrive{inner: mem, rec: rec}
		drive = tdrive
		engine = &tracedEngine{inner: wfbench.SimEngine{}, rec: rec}
		popts.Drive = tdrive
		popts.Engine = engine
	}
	p, err := serverless.New(popts)
	if err != nil {
		return nil, err
	}
	if _, err := p.Start(); err != nil {
		return nil, err
	}
	defer p.Stop()
	if err := p.Apply(serverless.ServiceConfig{
		Name: "wfbench", Workers: fanoutWorkers, MinScale: fanoutPods, MaxScale: fanoutPods,
	}); err != nil {
		return nil, err
	}
	// The platform's own ingress listens on a port of its choosing; the
	// same handler is served at the address the JSON names.
	_, stop, err := serveLoopback(addr, platformHandler(p, rec))
	if err != nil {
		return nil, err
	}
	defer stop()
	if err := settle(); err != nil {
		return nil, err
	}
	r := &fanoutRep{SetupS: time.Since(setupStart).Seconds(), Tasks: fanoutTasks}

	// The measured phase: JSON in, every result out.
	opts := wfm.Options{
		Drive:       drive,
		MaxParallel: 512,
		Scheduling:  wfm.ScheduleDependency,
		Batching:    wfm.BatchOptions{Enabled: true},
	}
	var tr *tracedTransport
	var runSpan uint64
	var smp *sampler
	var pbase platformBase
	if traced {
		tr = &tracedTransport{base: wfmTransport(opts.MaxParallel), rec: rec, name: "wfm.http",
			parent: func() uint64 { return runSpan }}
		opts.Client = &http.Client{Transport: tr}
		pbase = basePlatform(p)
		rec.measureFromNow()
		smp = startSampler(func() int64 { return int64(p.Pods()) }, func() int64 { return int64(p.QueueDepth()) })
	}
	before := snapProc()
	t0 := time.Now()
	var w *wfformat.Workflow
	var res *wfm.Result
	err = func() error {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		parse := func() {
			if w, err = wfformat.Parse(data); err == nil {
				err = w.Validate()
			}
		}
		if traced {
			d := rec.timed("wfformat.parse", "", parse)
			r.layer()["wfformat.parse_ms"] = float64(d) / 1e6
		} else {
			parse()
		}
		if err != nil {
			return err
		}
		r.SubmitMS = msSince(t0)
		m, err := wfm.New(opts)
		if err != nil {
			return err
		}
		if traced {
			var id uint64
			var start int64
			id, start = rec.begin()
			runSpan = id
			res, err = m.Run(ctx, w)
			rec.end(id, 0, "wfm.run", "", start)
			r.layer()["wfm.run_ms"] = float64(rec.now()-start) / 1e6
		} else {
			res, err = m.Run(ctx, w)
		}
		return err
	}()
	r.RunMS = msSince(t0)
	r.Proc = before.to(snapProc())
	if err != nil {
		return nil, err
	}
	if r.PeakRSSMB, err = peakRSSMB(); err != nil {
		return nil, err
	}

	// Output checks, outside the timed phase.
	r.FailedTasks = len(res.Failed)
	if len(res.Failed) > 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("fanout-100k: %d tasks failed, first %s", len(res.Failed), res.Failed[0]))
	}
	done := 0
	for _, t := range res.Tasks {
		if t.Err == nil && t.Name != wfm.HeaderName && t.Name != wfm.TailName {
			done++
		}
	}
	if done != fanoutTasks {
		r.Problems = append(r.Problems, fmt.Sprintf("fanout-100k: %d of %d tasks completed", done, fanoutTasks))
	}
	wrong := 0
	for _, t := range w.Tasks {
		for name, size := range t.OutputSizes() {
			if got, err := mem.Stat(name); err != nil || got != size {
				wrong++
			}
		}
	}
	if wrong > 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("fanout-100k: %d outputs missing or of the wrong size on the drive", wrong))
	}

	if traced {
		peaks := smp.finish()
		l := r.layer()
		l["wfm.self_ms"] = float64(selfTime(rec.byName("wfm.run"), rec.byName("wfm.http"))) / 1e6
		l.httpLayer(tr, rec, fanoutTasks)
		l.platformLayer(p, pbase, rec, peaks[0], peaks[1])
		l.engineLayer(engine)
		l.driveLayer(fanoutTasks, tdrive)
		l.procLayer(r.Proc, fanoutTasks)
		if err := dagLayer(l, w); err != nil {
			return nil, err
		}
		r.SpansFile = fmt.Sprintf("%s.spans-%d.jsonl", path, os.Getpid())
		if err := rec.writeJSONL(r.SpansFile); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *fanoutRep) layer() layerVals {
	if r.Layer == nil {
		r.Layer = layerVals{}
	}
	return r.Layer
}

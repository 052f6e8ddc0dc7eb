package main

// service-mix: an open loop of workflow submissions to wfmd over real
// HTTP. Submissions arrive as a Poisson process at svcRate from one
// generator holding two connections, one submitting and one polling
// run status, and each is timed from when it was due. Three tenants
// with weights 3:2:1 share a wfmd at its cmd/wfmd defaults (group-commit
// journal, one POST per task) plus one memo cache. Each run is a
// Knative-translated 200-task recipe workflow; a third of the
// submissions repeat a workflow pre-run during set-up, so they are
// served from the memo cache, and the rest are fresh, so they execute
// and write the journal and the cache. This is the only workload that reaches admission, the
// journal, the memo cache and the per-task HTTP path under load.
//
// At 30 runs/s the median run latency moved between 60 and 117 ms from
// run to run; 20 runs/s is about 40% of what two closed-loop clients
// sustain, steady while queueing still shows in the p95.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"wfserverless/internal/cluster"
	"wfserverless/internal/experiments"
	"wfserverless/internal/journal"
	"wfserverless/internal/memo"
	"wfserverless/internal/recipes"
	"wfserverless/internal/serverless"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/translator"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfformat"
	"wfserverless/internal/wfgen"
	"wfserverless/internal/wfm"
	"wfserverless/internal/wfmd"
)

const (
	svcRate  = 10.0 // submissions per second
	svcTasks = 200  // requested size of every workflow
	// svcRepeatShare is the share of submissions that repeat a pool
	// workflow. Repeats finish in about 17 ms and fresh runs in about
	// 60, so at one half the median run latency fell in the gap between
	// the two and swung by 10-20% from run to run; at one third it lies
	// inside the fresh runs' distribution.
	svcRepeatShare = 1.0 / 3
	// svcPool is how many distinct workflows set-up pre-runs; repeat
	// submissions draw from them.
	svcPool = 8
	// svcWindows is how many times a run sets the service up afresh and
	// drives it for its share of --seconds. The service keeps every run
	// it has seen in memory, so a longer life means a larger heap and
	// longer collections; three shorter windows also give set-up time
	// three samples.
	svcWindows = 3
	// svcPollEvery is the poller's pause between sweeps of the
	// outstanding runs, which bounds how late it sees a run finish.
	svcPollEvery = 2 * time.Millisecond
	// svcTimeScale compresses the recipes' modeled task times on the
	// platform: a 200-task run takes tens of milliseconds.
	svcTimeScale = 0.004
	svcPods      = 16
	svcWorkers   = 10
	// svcDrain bounds the wait for the last runs after the window.
	svcDrain = 60 * time.Second
)

var svcTenants = []wfmd.TenantConfig{
	{Name: "tenant-a", Weight: 3},
	{Name: "tenant-b", Weight: 2},
	{Name: "tenant-c", Weight: 1},
}

// arrival is one scheduled submission.
type arrival struct {
	Due    time.Duration // since the start of the window
	Tenant string
	Repeat bool
	// Index is the pool workflow a repeat submits, or the fresh
	// instance a fresh one submits.
	Index int
}

// schedule draws the window's arrivals from seed: a Poisson process at
// rate conditioned on its expected count, so the arrival times are that
// many sorted uniform draws. Exactly repeatShare of them, at shuffled
// places, repeat the pool workflows in turn; the rest are fresh, and
// tenants are drawn uniformly. Fixing the count and the share keeps
// the offered load the same for every seed; only its timing varies.
func schedule(seed int64, rate float64, window time.Duration, pool int, repeatShare float64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	n := int(rate*window.Seconds() + 0.5)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	repeat := make([]bool, n)
	for i := 0; i < int(float64(n)*repeatShare+0.5); i++ {
		repeat[i] = true
	}
	rng.Shuffle(n, func(i, j int) { repeat[i], repeat[j] = repeat[j], repeat[i] })
	out := make([]arrival, n)
	repeats, fresh := 0, 0
	for i := range out {
		out[i] = arrival{Due: due[i], Tenant: svcTenants[rng.Intn(len(svcTenants))].Name, Repeat: repeat[i]}
		if repeat[i] {
			out[i].Index = repeats % pool
			repeats++
		} else {
			out[i].Index = fresh
			fresh++
		}
	}
	return out
}

// expectedHits is how many tasks the memo cache must serve: every task
// of every repeat submission, and none of a fresh one.
func expectedHits(arrivals []arrival, poolTasks []int) int {
	hits := 0
	for _, a := range arrivals {
		if a.Repeat {
			hits += poolTasks[a.Index]
		}
	}
	return hits
}

// openLoop calls send for each arrival at its due time after start,
// without waiting for earlier sends to be answered beyond their own
// call, and returns how late each send began. A send that overruns
// delays the next ones; their lateness records it.
func openLoop(ctx context.Context, start time.Time, arrivals []arrival, send func(i int)) []time.Duration {
	late := make([]time.Duration, len(arrivals))
	for i, a := range arrivals {
		due := start.Add(a.Due)
		if d := time.Until(due); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return late[:i]
			case <-t.C:
			}
		}
		late[i] = time.Since(due)
		send(i)
	}
	return late
}

// tagWorkflow prefixes every file name with tag. Recipes name files by
// role, so two instances of one recipe would otherwise write the same
// names at different sizes and overwrite each other's outputs on the
// shared drive.
func tagWorkflow(w *wfformat.Workflow, tag string) {
	for _, t := range w.Tasks {
		for i := range t.Files {
			t.Files[i].Name = tag + t.Files[i].Name
		}
		for i := range t.Command.Arguments {
			a := &t.Command.Arguments[i]
			out := make(map[string]int64, len(a.Out))
			for k, v := range a.Out {
				out[tag+k] = v
			}
			a.Out = out
			for j := range a.Inputs {
				a.Inputs[j] = tag + a.Inputs[j]
			}
		}
	}
}

// svcWorkflow generates one tagged, translated workflow as submitted.
func svcWorkflow(recipe string, seed int64, tag, url string) ([]byte, int, error) {
	w, err := wfgen.Generate(wfgen.Spec{Recipe: recipe, NumTasks: svcTasks, Seed: seed})
	if err != nil {
		return nil, 0, err
	}
	tagWorkflow(w, tag)
	tw, err := translator.Knative(w, translator.KnativeOptions{IngressURL: url, Workdir: "shared"})
	if err != nil {
		return nil, 0, err
	}
	data, err := tw.Marshal()
	return data, tw.Len(), err
}

// svcService is one set-up instance of the service under test.
type svcService struct {
	dir      string
	platform *serverless.Platform
	cache    *memo.Cache
	srv      *wfmd.Server
	url      string
	stops    []func()

	drive     *tracedDrive
	engine    *tracedEngine
	transport *tracedTransport

	pool, fresh           [][]byte
	poolTasks, freshTasks []int
	arrivals              []arrival
}

func (s *svcService) close() {
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
	s.stops = nil
}

// setupService starts a platform, a memo cache and wfmd, generates the
// window's submissions, and pre-runs the repeat pool.
func setupService(ctx context.Context, o options, dir string, seed int64, arrivals []arrival) (_ *svcService, err error) {
	s := &svcService{dir: dir, arrivals: arrivals}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	mem := sharedfs.NewMem()
	var drive sharedfs.Drive = mem
	popts := serverless.Options{Cluster: cluster.PaperTestbed(), Drive: mem, TimeScale: svcTimeScale}
	if o.Rec != nil {
		s.drive = &tracedDrive{inner: mem, rec: o.Rec}
		s.engine = &tracedEngine{inner: wfbench.SimEngine{}, rec: o.Rec}
		drive, popts.Drive, popts.Engine = s.drive, s.drive, s.engine
	}
	if s.platform, err = serverless.New(popts); err != nil {
		return nil, err
	}
	if _, err := s.platform.Start(); err != nil {
		return nil, err
	}
	s.stops = append(s.stops, s.platform.Stop)
	// Pods reserve what Kn10wNoPM pods reserve under the default Tunables.
	tn := experiments.DefaultTunables()
	if err := s.platform.Apply(serverless.ServiceConfig{
		Name: "wfbench", Workers: svcWorkers, MinScale: svcPods, MaxScale: svcPods,
		CPURequestPerWorker: tn.CPURequestPerWorker, MemRequestPerWorker: tn.MemRequestPerWorker,
	}); err != nil {
		return nil, err
	}
	// Tasks go to the platform's handler on a listener of the
	// benchmark's own, the same way traced or not.
	platformURL, stop, err := serveLoopback("", platformHandler(s.platform, o.Rec))
	if err != nil {
		return nil, err
	}
	s.stops = append(s.stops, stop)

	if s.cache, err = memo.Open(filepath.Join(dir, "memo.cache")); err != nil {
		return nil, err
	}
	s.stops = append(s.stops, func() { s.cache.Close() })
	mopts := wfm.Options{
		Drive:       drive,
		TimeScale:   1,
		MaxParallel: 64,
		Scheduling:  wfm.ScheduleDependency,
		Memoize:     s.cache,
	}
	if o.Rec != nil {
		// A transport configured as wfmd.New configures its shared one.
		s.transport = &tracedTransport{
			base: &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 256, IdleConnTimeout: 90 * time.Second},
			rec:  o.Rec, name: "wfm.http", parent: func() uint64 { return 0 },
		}
		mopts.Client = &http.Client{Transport: s.transport}
	}
	if s.srv, err = wfmd.New(wfmd.Config{
		DataDir:            filepath.Join(dir, "wfmd"),
		Manager:            mopts,
		Tenants:            svcTenants,
		DefaultTenant:      wfmd.TenantConfig{Weight: 1, MaxConcurrentRuns: 4},
		QueueCapacity:      256,
		MaxActiveRuns:      64,
		TaskSlots:          256,
		RetryAfter:         1,
		JournalSync:        journal.SyncGroup,
		JournalGroupWindow: 2 * time.Millisecond,
	}); err != nil {
		return nil, err
	}
	s.stops = append(s.stops, s.srv.Stop)
	var h http.Handler = s.srv.Handler()
	if o.Rec != nil {
		h = tracedHandler{next: h, rec: o.Rec, name: func(r *http.Request) string {
			if r.Method == http.MethodPost {
				return "wfmd.submit"
			}
			return "wfmd.status"
		}}
	}
	url, stop, err := serveLoopback("", h)
	if err != nil {
		return nil, err
	}
	s.url = url
	s.stops = append(s.stops, stop)

	// The submissions: the repeat pool and one fresh instance per fresh
	// arrival, every instance with its own file-name tag and seed. Both
	// go through the recipes in turn, from a seeded starting point, so
	// every run submits the same mix of workflow shapes.
	rng := rand.New(rand.NewSource(seed))
	names := recipes.Names()
	first := rng.Intn(len(names))
	fresh := 0
	for _, a := range arrivals {
		if !a.Repeat {
			fresh++
		}
	}
	for i := 0; i < svcPool+fresh; i++ {
		tag, into, tasks := fmt.Sprintf("p%03d-", i), &s.pool, &s.poolTasks
		if i >= svcPool {
			tag, into, tasks = fmt.Sprintf("f%05d-", i-svcPool), &s.fresh, &s.freshTasks
		}
		recipe := names[(first+i)%len(names)]
		body, n, err := svcWorkflow(recipe, seed+int64(i), tag, platformURL)
		if err != nil {
			return nil, err
		}
		*into = append(*into, body)
		*tasks = append(*tasks, n)
	}

	// Pre-run the pool so that every repeat in the window is a memo hit.
	c := &http.Client{}
	for i, body := range s.pool {
		st, err := submit(ctx, c, s.url, svcTenants[0].Name, body)
		if err != nil {
			return nil, fmt.Errorf("pre-running pool workflow %d: %w", i, err)
		}
		for !wfmd.IsTerminal(st.State) {
			time.Sleep(svcPollEvery)
			if st, err = status(ctx, c, s.url, st.ID); err != nil {
				return nil, err
			}
		}
		if st.State != wfmd.StateSucceeded {
			return nil, fmt.Errorf("pre-running pool workflow %d: run %s %s: %s", i, st.ID, st.State, st.Error)
		}
	}
	return s, nil
}

// submit posts one workflow; a non-202 answer is an error.
func submit(ctx context.Context, c *http.Client, url, tenant string, body []byte) (*wfmd.RunStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/runs?tenant="+tenant, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return doStatus(c, req, http.StatusAccepted)
}

func status(ctx context.Context, c *http.Client, url, id string) (*wfmd.RunStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/runs/"+id, nil)
	if err != nil {
		return nil, err
	}
	return doStatus(c, req, http.StatusOK)
}

func doStatus(c *http.Client, req *http.Request, want int) (*wfmd.RunStatus, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, strings.TrimSpace(string(body)))
	}
	var st wfmd.RunStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// svcRun is one measured submission's outcome.
type svcRun struct {
	id                 string
	accepted, terminal time.Time
	state              string
	err                error
}

// svcWindow is what one window of the open loop measured.
type svcWindow struct {
	setupS, peakRSSMB, elapsedS                float64
	tasks                                      int
	submitMS, latMS, repeatMS, freshMS, lateMS []float64
	layer                                      layerVals
}

func runServiceMix(ctx context.Context, o options) (*report, error) {
	rep := newReport()
	rng := rand.New(rand.NewSource(o.Seed))
	window := time.Duration(o.Seconds / svcWindows * float64(time.Second))
	var ws []*svcWindow
	for k := 0; k < svcWindows; k++ {
		seed := rng.Int63()
		t := time.Now()
		arrivals := schedule(seed, svcRate, window, svcPool, svcRepeatShare)
		s, err := setupService(ctx, o, filepath.Join(o.Dir, fmt.Sprintf("window%d", k)), seed, arrivals)
		if err != nil {
			return nil, err
		}
		if err := settle(); err != nil {
			s.close()
			return nil, err
		}
		setupS := time.Since(t).Seconds()
		w, err := s.measure(ctx, o, rep, window)
		s.close()
		if err != nil {
			return nil, err
		}
		w.setupS = setupS
		ws = append(ws, w)
	}

	var setups, rss, submitMS, latMS, repeatMS, freshMS, lateMS []float64
	tasks, elapsed := 0, 0.0
	layers := map[string][]float64{}
	for _, w := range ws {
		setups = append(setups, w.setupS)
		rss = append(rss, w.peakRSSMB)
		submitMS = append(submitMS, w.submitMS...)
		latMS = append(latMS, w.latMS...)
		repeatMS = append(repeatMS, w.repeatMS...)
		freshMS = append(freshMS, w.freshMS...)
		lateMS = append(lateMS, w.lateMS...)
		tasks += w.tasks
		elapsed += w.elapsedS
		for k, v := range w.layer {
			layers[k] = append(layers[k], v)
		}
	}
	n := len(latMS)
	rep.endToEnd(setups, rss, metric{Value: float64(tasks) / elapsed, N: n,
		Note: fmt.Sprintf("n=%d runs, tasks over each window plus its drain", n)}, submitMS, latMS)
	rep.timing("repeat_latency_p50_ms", repeatMS)
	rep.timing("fresh_latency_p50_ms", freshMS)
	l := layerVals{}
	for k, vs := range layers {
		l[k] = medianOf(vs)
	}
	// Lateness is pooled over the windows: its tail is the point.
	l["gen.late_p99_ms"] = percentile(lateMS, 99)
	l["gen.late_max_ms"] = percentile(lateMS, 100)
	l.into(rep, len(ws))
	return rep, nil
}

// measure runs one window of the open loop against the service and
// checks every run it submitted.
func (s *svcService) measure(ctx context.Context, o options, rep *report, window time.Duration) (*svcWindow, error) {
	arrivals := s.arrivals
	// Two connections: one submitting, one polling.
	submitter := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	poller := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	base := tenantTotals(s.srv)
	pbase := basePlatform(s.platform)
	var smp *sampler
	if o.Rec != nil {
		o.Rec.measureFromNow()
		s.transport.reset()
		s.engine.reset()
		s.drive.reset()
		smp = startSampler(
			func() int64 { return int64(s.platform.Pods()) },
			func() int64 { return int64(s.platform.QueueDepth()) },
			func() int64 { return int64(s.srv.QueueDepth()) },
		)
	}
	runs := make([]svcRun, len(arrivals))
	accepted := make(chan int, len(arrivals)) // one send per arrival at most
	pollDone := make(chan []time.Duration)
	drainCtx, cancel := context.WithTimeout(ctx, window+svcDrain)
	defer cancel()
	go func() { pollDone <- pollRuns(drainCtx, poller, s.url, runs, accepted) }()

	before := snapProc()
	start := time.Now()
	late := openLoop(drainCtx, start, arrivals, func(i int) {
		a := arrivals[i]
		body := s.fresh[a.Index]
		if a.Repeat {
			body = s.pool[a.Index]
		}
		st, err := submit(drainCtx, submitter, s.url, a.Tenant, body)
		if err != nil {
			runs[i].err = err
			return
		}
		runs[i].id, runs[i].accepted = st.ID, time.Now()
		accepted <- i
	})
	close(accepted)
	pollGaps := <-pollDone
	after := snapProc()
	end := time.Now()
	var peaks []int64
	if smp != nil {
		peaks = smp.finish()
	}
	if drainCtx.Err() != nil {
		return nil, fmt.Errorf("service-mix: runs still outstanding %v after the window", svcDrain)
	}
	w := &svcWindow{elapsedS: end.Sub(start).Seconds()}
	var err error
	if w.peakRSSMB, err = peakRSSMB(); err != nil {
		return nil, err
	}

	var execMS, admitMS []float64
	hits, invoked := 0, 0
	for i, a := range arrivals {
		r := &runs[i]
		rep.Attempted++
		n := s.freshTasks[a.Index]
		if a.Repeat {
			n = s.poolTasks[a.Index]
		}
		if r.err != nil {
			rep.Failed++
			rep.problem("service-mix: submission %d refused: %v", i, r.err)
			continue
		}
		due := start.Add(a.Due)
		w.submitMS = append(w.submitMS, float64(r.accepted.Sub(due))/1e6)
		lat := float64(r.terminal.Sub(due)) / 1e6
		w.latMS = append(w.latMS, lat)
		if a.Repeat {
			w.repeatMS = append(w.repeatMS, lat)
		} else {
			w.freshMS = append(w.freshMS, lat)
		}
		res, err := readResult(s.dir, r.id)
		if err != nil || r.state != wfmd.StateSucceeded || res.State != wfmd.StateSucceeded {
			rep.Failed++
			rep.problem("service-mix: run %s ended %s (result.json: %v)", r.id, r.state, err)
			continue
		}
		w.tasks += n
		hits += res.Memoized
		want := 0
		if a.Repeat {
			want = n
		} else {
			invoked += n
		}
		if res.Memoized != want {
			rep.problem("service-mix: run %s had %d memo hits, want %d", r.id, res.Memoized, want)
		}
		execMS = append(execMS, res.WallS*1e3)
		admitMS = append(admitMS, max(0, float64(r.terminal.Sub(r.accepted))/1e6-res.WallS*1e3))
	}
	if want := expectedHits(arrivals, s.poolTasks); hits != want {
		rep.problem("service-mix: %d memo hits in total, want %d", hits, want)
	}

	for _, d := range late {
		w.lateMS = append(w.lateMS, float64(d)/1e6)
	}
	gapMS := make([]float64, len(pollGaps))
	for i, d := range pollGaps {
		gapMS[i] = float64(d) / 1e6
	}
	totals := tenantTotals(s.srv)
	l := layerVals{
		"gen.poll_interval_ms":   medianOf(gapMS),
		"memo.hit_ratio":         perTask(float64(hits), w.tasks),
		"wfmd.exec_p50_ms":       medianOf(execMS),
		"wfmd.admit_wait_p50_ms": medianOf(admitMS),
		"wfmd.rejected":          float64(totals.rejected - base.rejected),
		"wfmd.contested_grants":  float64(totals.contested - base.contested),
	}
	w.layer = l
	if o.Rec == nil {
		return w, nil
	}
	l["wfm.run_ms"] = medianOf(execMS)
	l.httpLayer(s.transport, o.Rec, invoked)
	l.platformLayer(s.platform, pbase, o.Rec, peaks[0], peaks[1])
	l["wfmd.queue_depth_peak"] = float64(peaks[2])
	l["wfmd.handle_submit_p50_ms"] = medianOf(o.Rec.durationsMS("wfmd.submit"))
	l.engineLayer(s.engine)
	l.driveLayer(w.tasks, s.drive)
	l.procLayer(before.to(after), w.tasks)
	if err := svcDiskLayer(l, s, runs, w.tasks); err != nil {
		return nil, err
	}
	if err := svcParseLayer(l, s, o.Rec); err != nil {
		return nil, err
	}
	return w, nil
}

// pollRuns polls every accepted run over one connection until each is
// terminal and accepted is closed, stamping runs as it goes. It returns
// the gaps between successive polls of the same run.
func pollRuns(ctx context.Context, c *http.Client, url string, runs []svcRun, accepted <-chan int) []time.Duration {
	var gaps []time.Duration
	type pending struct {
		i    int
		last time.Time
	}
	var out []pending
	open := true
	for open || len(out) > 0 {
		if len(out) == 0 {
			select {
			case i, ok := <-accepted:
				if !ok {
					open = false
					continue
				}
				out = append(out, pending{i: i})
			case <-ctx.Done():
				return gaps
			}
		}
		for drained := false; open && !drained; {
			select {
			case i, ok := <-accepted:
				if !ok {
					open = false
				} else {
					out = append(out, pending{i: i})
				}
			default:
				drained = true
			}
		}
		kept := out[:0]
		for _, p := range out {
			now := time.Now()
			if !p.last.IsZero() {
				gaps = append(gaps, now.Sub(p.last))
			}
			p.last = now
			st, err := status(ctx, c, url, runs[p.i].id)
			if err != nil {
				if ctx.Err() != nil {
					return gaps
				}
				runs[p.i].state, runs[p.i].terminal = "poll failed: "+err.Error(), time.Now()
				continue
			}
			if wfmd.IsTerminal(st.State) {
				runs[p.i].state, runs[p.i].terminal = st.State, time.Now()
				continue
			}
			kept = append(kept, p)
		}
		out = kept
		if len(out) > 0 {
			t := time.NewTimer(svcPollEvery)
			select {
			case <-ctx.Done():
				t.Stop()
				return gaps
			case <-t.C:
			}
		}
	}
	return gaps
}

func readResult(dir, id string) (*wfmd.RunResult, error) {
	data, err := os.ReadFile(filepath.Join(dir, "wfmd", "runs", id, "result.json"))
	if err != nil {
		return nil, err
	}
	var res wfmd.RunResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("run %s result.json: %w", id, err)
	}
	return &res, nil
}

type tenantSums struct{ rejected, contested int64 }

func tenantTotals(srv *wfmd.Server) tenantSums {
	var t tenantSums
	for _, ts := range srv.TenantStats() {
		t.rejected += ts.RunsRejected
		t.contested += ts.ContestedGrants
	}
	return t
}

// svcDiskLayer measures what the measured runs left on disk, and how
// long the memo cache they filled takes to open.
func svcDiskLayer(l layerVals, s *svcService, runs []svcRun, tasks int) error {
	var journalBytes, dirBytes int64
	nruns := 0
	for _, r := range runs {
		if r.id == "" {
			continue
		}
		nruns++
		err := filepath.WalkDir(filepath.Join(s.dir, "wfmd", "runs", r.id), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			dirBytes += info.Size()
			if strings.Contains(path, string(filepath.Separator)+"journal"+string(filepath.Separator)) {
				journalBytes += info.Size()
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	l["journal.bytes_per_task"] = perTask(float64(journalBytes), tasks)
	if nruns > 0 {
		l["wfmd.run_dir_bytes_per_run"] = float64(dirBytes) / float64(nruns)
	}
	// Reopen a copy of the cache: the service still holds the original.
	if err := s.cache.Sync(); err != nil {
		return err
	}
	data, err := os.ReadFile(s.cache.Path())
	if err != nil {
		return err
	}
	l["memo.cache_bytes"] = float64(len(data))
	cp := filepath.Join(s.dir, "memo-copy.cache")
	if err := os.WriteFile(cp, data, 0o644); err != nil {
		return err
	}
	t := time.Now()
	c, err := memo.Open(cp)
	l["memo.open_ms"] = msSince(t)
	if err != nil {
		return err
	}
	return c.Close()
}

// svcParseLayer times wfformat.Parse on every distinct submitted body.
func svcParseLayer(l layerVals, s *svcService, rec *recorder) error {
	var ms []float64
	var ws []*wfformat.Workflow
	for _, body := range append(append([][]byte(nil), s.pool...), s.fresh...) {
		var w *wfformat.Workflow
		var err error
		d := rec.timed("wfformat.parse", "", func() { w, err = wfformat.Parse(body) })
		if err != nil {
			return err
		}
		ms = append(ms, float64(d)/1e6)
		ws = append(ws, w)
	}
	l["wfformat.parse_ms"] = medianOf(ms)
	return dagLayer(l, ws...)
}

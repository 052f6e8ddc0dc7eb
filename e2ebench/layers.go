package main

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"wfserverless/internal/dag"
	"wfserverless/internal/serverless"
	"wfserverless/internal/wfformat"
)

// layerVals are per-layer metric values by name, as one traced pass
// measured them; units come from perLayer.
type layerVals map[string]float64

// perTask divides by the task count, 0 for no tasks.
func perTask(v float64, tasks int) float64 {
	if tasks == 0 {
		return 0
	}
	return v / float64(tasks)
}

// httpLayer reads the wfm → platform round trips. tasks is how many
// tasks those requests carried.
func (l layerVals) httpLayer(tr *tracedTransport, rec *recorder, tasks int) {
	reqs := tr.requests.Load()
	l["wfm.http_requests"] = float64(reqs)
	if reqs > 0 {
		l["wfm.http_tasks_per_request"] = float64(tasks) / float64(reqs)
	}
	l["wfm.http_req_bytes_per_task"] = perTask(float64(tr.reqBytes.Load()), tasks)
	l["wfm.http_resp_bytes_per_task"] = perTask(float64(tr.respByte.Load()), tasks)
	rtt := rec.durationsMS(tr.name)
	l["wfm.http_rtt_p50_ms"] = medianOf(rtt)
	l["wfm.http_rtt_p99_ms"] = percentile(rtt, 99)
	l["wfm.http_busy_ms"] = float64(totalLen(merge(rec.byName(tr.name)))) / 1e6
	l["wfm.http_errors"] = float64(tr.errors.Load())
	l["wfm.http_inflight_peak"] = float64(tr.inflight.max.Load())
}

// platformBase is the serverless platform's counters before a pass.
type platformBase struct{ requests, failures, coldStarts, stalls int64 }

func basePlatform(p *serverless.Platform) platformBase {
	return platformBase{p.Requests(), p.Failures(), p.ColdStarts(), p.ScaleStalls()}
}

// platformLayer reads the serverless platform: handler spans, its
// counters since b, and the sampled pod and queue peaks. Its self time
// is handler time not covered by a WfBench stress phase.
func (l layerVals) platformLayer(p *serverless.Platform, b platformBase, rec *recorder, podsPeak, queuePeak int64) {
	handle := rec.durationsMS("serverless.handle")
	l["serverless.handle_p50_ms"] = medianOf(handle)
	l["serverless.handle_p99_ms"] = percentile(handle, 99)
	l["serverless.self_ms"] = float64(selfTime(rec.byName("serverless.handle"), rec.byName("wfbench.engine"))) / 1e6
	l["serverless.requests"] = float64(p.Requests() - b.requests)
	l["serverless.failures"] = float64(p.Failures() - b.failures)
	l["serverless.cold_starts"] = float64(p.ColdStarts() - b.coldStarts)
	l["serverless.scale_stalls"] = float64(p.ScaleStalls() - b.stalls)
	l["serverless.pods_peak"] = float64(podsPeak)
	l["serverless.queue_depth_peak"] = float64(queuePeak)
}

func (l layerVals) engineLayer(e *tracedEngine) {
	l["wfbench.engine_calls"] = float64(e.calls.Load())
	l["wfbench.engine_busy_ms"] = float64(e.actualNS.Load()) / 1e6
	l["wfbench.engine_overshoot_pct"] = e.overshootPct()
}

// driveLayer sums the drives' counters. Busy time is the union of
// their operations' intervals: summed durations would count every
// goroutine preempted mid-operation as drive time.
func (l layerVals) driveLayer(tasks int, ds ...*tracedDrive) {
	var ops, writes, stats, hashes int64
	var busy []interval
	for _, d := range ds {
		ops += d.ops()
		writes += d.writes.Load()
		stats += d.stats.Load()
		hashes += d.hashes.Load()
		d.mu.Lock()
		busy = append(busy, d.busy...)
		d.mu.Unlock()
	}
	l["sharedfs.ops_per_task"] = perTask(float64(ops), tasks)
	l["sharedfs.writes"] = float64(writes)
	l["sharedfs.stats"] = float64(stats)
	l["sharedfs.hashes"] = float64(hashes)
	l["sharedfs.busy_ms"] = float64(totalLen(merge(busy))) / 1e6
}

func (l layerVals) procLayer(d procDelta, tasks int) {
	l["proc.cpu_ms_per_task"] = perTask(d.CPUMS, tasks)
	l["proc.allocs_per_task"] = perTask(d.Allocs, tasks)
	l["proc.alloc_bytes_per_task"] = perTask(d.AllocBytes, tasks)
	l["proc.gc_cycles"] = d.GCs
}

// into copies the values into a report with their units, n samples each.
func (l layerVals) into(rep *report, n int) {
	for _, d := range perLayer {
		if v, ok := l[d.Name]; ok {
			rep.Layer[d.Name] = metric{Value: v, Unit: d.Unit, N: n}
		}
	}
}

// platformHandler is the platform's HTTP handler as the benchmark
// serves it: the platform itself, behind a timing wrapper when traced.
func platformHandler(p *serverless.Platform, rec *recorder) http.Handler {
	if rec == nil {
		return p
	}
	return tracedHandler{next: p, rec: rec, name: func(*http.Request) string { return "serverless.handle" }}
}

// wfmTransport builds a transport configured exactly as wfm.New builds
// its own when Options.Client is nil, for a MaxParallel of pool.
func wfmTransport(pool int) *http.Transport {
	return &http.Transport{
		MaxIdleConns:        pool,
		MaxIdleConnsPerHost: pool,
		IdleConnTimeout:     90 * time.Second,
		WriteBufferSize:     64 << 10,
		ReadBufferSize:      64 << 10,
		DisableCompression:  true,
	}
}

// dagLayer times dag.BuildCSR on the workflow's graph, then drains a
// scheduler over the result with no invocation behind it.
func dagLayer(l layerVals, ws ...*wfformat.Workflow) error {
	var buildNS, drainNS int64
	tasks := 0
	for _, w := range ws {
		g, err := w.Graph()
		if err != nil {
			return err
		}
		t := time.Now()
		csr, err := dag.BuildCSR(g)
		buildNS += int64(time.Since(t))
		if err != nil {
			return err
		}
		t = time.Now()
		s := dag.NewSchedulerCSR(csr)
		// CompleteID hands back the vertices it made ready already
		// marked running, so they go straight onto the work stack.
		stack := append([]int32(nil), s.TakeReadyIDs()...)
		drained := 0
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			newly, err := s.CompleteID(id)
			if err != nil {
				return err
			}
			stack = append(stack, newly...)
			drained++
		}
		drainNS += int64(time.Since(t))
		if drained != csr.Len() {
			return fmt.Errorf("dag drain of %s completed %d of %d vertices", w.Name, drained, csr.Len())
		}
		tasks += drained
	}
	l["dag.build_ms"] = float64(buildNS) / 1e6
	l["dag.drain_ns_per_task"] = perTask(float64(drainNS), tasks)
	return nil
}

// serveLoopback serves h at addr, a fresh loopback port when addr is
// empty, until stop, which waits for the server to finish. Stop closes
// connections at once: it runs once the measured work is done, and a
// graceful shutdown waits up to five seconds for any connection a
// client dialed but never used.
func serveLoopback(addr string, h http.Handler) (url string, stop func(), err error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	stop = func() {
		srv.Close()
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

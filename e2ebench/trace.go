package main

// The traced run's instruments. Every wrapper here is installed only
// when --trace 1 is given and sits on a public seam of one layer, so the
// program's own code path is the same one the untraced run measures:
//
//	tracedTransport  wfm.Options.Client          wfm → platform HTTP
//	tracedHandler    Platform / wfmd Server       server side of HTTP
//	tracedDrive      Drive, Watcher and Hasher    every shared-drive op
//	tracedEngine     serverless/core Engine       the WfBench stress phase
//
// Spans stay in memory and are written out once the run ends.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
)

// span is one timed call at a layer boundary. Parent is 0 when the
// caller is not known; spans of one workflow run share Run.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Run    string `json:"run,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// recorder collects spans in memory. Times are nanoseconds since the
// recorder was made. All methods are safe for concurrent use.
type recorder struct {
	epoch time.Time
	ids   atomic.Uint64
	// from is when the measured phase began: spans that started
	// earlier, during set-up, are written out but not measured.
	from atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin allocates a span ID and returns it with the start time.
func (r *recorder) begin() (uint64, int64) { return r.ids.Add(1), r.now() }

// end records a span that began at start.
func (r *recorder) end(id, parent uint64, name, run string, start int64) {
	s := span{ID: id, Parent: parent, Name: name, Run: run, Start: start, End: r.now()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed runs f inside a span and returns f's duration.
func (r *recorder) timed(name, run string, f func()) time.Duration {
	id, start := r.begin()
	f()
	r.end(id, 0, name, run, start)
	return time.Duration(r.now() - start)
}

// measureFromNow starts the measured phase.
func (r *recorder) measureFromNow() { r.from.Store(r.now()) }

// byName returns the intervals of every measured span with the given
// name.
func (r *recorder) byName(name string) []interval {
	from := r.from.Load()
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []interval
	for _, s := range r.spans {
		if s.Name == name && s.Start >= from {
			out = append(out, s.interval())
		}
	}
	return out
}

// durationsMS returns the durations of every span with the given name.
func (r *recorder) durationsMS(name string) []float64 {
	var out []float64
	for _, iv := range r.byName(name) {
		out = append(out, float64(iv.End-iv.Start)/1e6)
	}
	return out
}

// writeJSONL writes every span, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peak tracks the maximum of a concurrently updated level.
type peak struct{ cur, max atomic.Int64 }

func (p *peak) add(d int64) {
	v := p.cur.Add(d)
	for {
		m := p.max.Load()
		if v <= m || p.max.CompareAndSwap(m, v) {
			return
		}
	}
}

func (p *peak) observe(v int64) {
	for {
		m := p.max.Load()
		if v <= m || p.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// tracedTransport times every HTTP round trip from the request to the
// close of its response body, and counts bytes both ways.
type tracedTransport struct {
	base   http.RoundTripper
	rec    *recorder
	name   string
	parent func() uint64

	requests, errors   atomic.Int64
	reqBytes, respByte atomic.Int64
	inflight           peak
}

// reset zeroes the counters at the start of the measured phase.
func (t *tracedTransport) reset() {
	t.requests.Store(0)
	t.errors.Store(0)
	t.reqBytes.Store(0)
	t.respByte.Store(0)
	t.inflight.max.Store(t.inflight.cur.Load())
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, start := t.rec.begin()
	t.requests.Add(1)
	t.inflight.add(1)
	if req.ContentLength > 0 {
		t.reqBytes.Add(req.ContentLength)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.errors.Add(1)
		t.inflight.add(-1)
		t.rec.end(id, t.parent(), t.name, "", start)
		return nil, err
	}
	if resp.StatusCode >= 400 {
		t.errors.Add(1)
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, t: t, id: id, start: start}
	return resp, nil
}

// countingBody ends its round trip's span on EOF or Close, whichever
// comes first.
type countingBody struct {
	io.ReadCloser
	t     *tracedTransport
	id    uint64
	start int64
	once  sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.t.respByte.Add(int64(n))
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.finish()
	return err
}

func (b *countingBody) finish() {
	b.once.Do(func() {
		b.t.inflight.add(-1)
		b.t.rec.end(b.id, b.t.parent(), b.t.name, "", b.start)
	})
}

// tracedHandler times every request a server handles.
type tracedHandler struct {
	next http.Handler
	rec  *recorder
	name func(*http.Request) string
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, start := h.rec.begin()
	h.next.ServeHTTP(w, r)
	h.rec.end(id, 0, h.name(r), "", start)
}

// memDrive is what the benchmark's drives provide: a Drive that can
// also push publication events and report content addresses. wfm falls
// back to polling and WfBench turns its input fast path off when a
// drive lacks either, so the wrapper must forward both.
type memDrive interface {
	sharedfs.Drive
	sharedfs.Watcher
	sharedfs.Hasher
}

// tracedDrive counts and times every shared-drive operation. Drive ops
// are too many to keep as spans (several per task), so each is kept as
// a counter and a bare interval.
type tracedDrive struct {
	inner memDrive
	rec   *recorder

	writes, stats, exists, hashes, watches, others atomic.Int64

	mu   sync.Mutex
	busy []interval
}

// reset zeroes the counters at the start of the measured phase.
func (d *tracedDrive) reset() {
	for _, n := range []*atomic.Int64{&d.writes, &d.stats, &d.exists, &d.hashes, &d.watches, &d.others} {
		n.Store(0)
	}
	d.mu.Lock()
	d.busy = nil
	d.mu.Unlock()
}

func (d *tracedDrive) ops() int64 {
	return d.writes.Load() + d.stats.Load() + d.exists.Load() + d.hashes.Load() + d.watches.Load() + d.others.Load()
}

// op counts one operation that began at start and ends now.
func (d *tracedDrive) op(n *atomic.Int64, start int64) {
	n.Add(1)
	iv := interval{start, d.rec.now()}
	d.mu.Lock()
	d.busy = append(d.busy, iv)
	d.mu.Unlock()
}

func (d *tracedDrive) WriteFile(name string, size int64) error {
	defer d.op(&d.writes, d.rec.now())
	return d.inner.WriteFile(name, size)
}

func (d *tracedDrive) Stat(name string) (int64, error) {
	defer d.op(&d.stats, d.rec.now())
	return d.inner.Stat(name)
}

func (d *tracedDrive) Exists(name string) bool {
	defer d.op(&d.exists, d.rec.now())
	return d.inner.Exists(name)
}

func (d *tracedDrive) List() []string {
	defer d.op(&d.others, d.rec.now())
	return d.inner.List()
}

func (d *tracedDrive) Remove(name string) error {
	defer d.op(&d.others, d.rec.now())
	return d.inner.Remove(name)
}

func (d *tracedDrive) TotalBytes() int64 {
	defer d.op(&d.others, d.rec.now())
	return d.inner.TotalBytes()
}

func (d *tracedDrive) Watch(name string) (<-chan struct{}, func()) {
	defer d.op(&d.watches, d.rec.now())
	return d.inner.Watch(name)
}

func (d *tracedDrive) ContentHash(name string) (uint64, bool) {
	defer d.op(&d.hashes, d.rec.now())
	return d.inner.ContentHash(name)
}

// tracedEngine times every WfBench stress phase against the wall time
// it was asked for.
type tracedEngine struct {
	inner wfbench.Engine
	rec   *recorder

	calls       atomic.Int64
	requestedNS atomic.Int64
	actualNS    atomic.Int64
}

// reset zeroes the counters at the start of the measured phase.
func (e *tracedEngine) reset() {
	e.calls.Store(0)
	e.requestedNS.Store(0)
	e.actualNS.Store(0)
}

func (e *tracedEngine) Run(ctx context.Context, wall time.Duration, duty float64) error {
	id, start := e.rec.begin()
	err := e.inner.Run(ctx, wall, duty)
	e.rec.end(id, 0, "wfbench.engine", "", start)
	e.calls.Add(1)
	e.requestedNS.Add(int64(wall))
	e.actualNS.Add(e.rec.now() - start)
	return err
}

// overshootPct is how much longer the stress phases ran than asked,
// as a percentage of the asked-for time.
func (e *tracedEngine) overshootPct() float64 {
	req := e.requestedNS.Load()
	if req == 0 {
		return 0
	}
	return 100 * float64(e.actualNS.Load()-req) / float64(req)
}

// sampler polls gauges every millisecond and keeps each one's peak.
type sampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []*peak
}

func startSampler(gauges ...func() int64) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	for range gauges {
		s.peaks = append(s.peaks, new(peak))
	}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			for i, g := range gauges {
				s.peaks[i].observe(g())
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it, and returns each gauge's peak.
func (s *sampler) finish() []int64 {
	close(s.stop)
	<-s.done
	out := make([]int64, len(s.peaks))
	for i, p := range s.peaks {
		out[i] = p.max.Load()
	}
	return out
}

// appendFile adds the spans of a JSONL file another process wrote,
// tagging them with run and renumbering them past this recorder's IDs.
func (r *recorder) appendFile(path, run string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	base := r.ids.Load()
	var maxID uint64
	sc := bufio.NewScanner(f)
	r.mu.Lock()
	defer r.mu.Unlock()
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
		maxID = max(maxID, s.ID)
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		s.Run = run
		r.spans = append(r.spans, s)
	}
	r.ids.Add(maxID)
	return sc.Err()
}

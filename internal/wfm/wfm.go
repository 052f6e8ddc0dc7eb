// Package wfm implements the paper's core contribution: a prototype
// workflow management system for serverless (Section III-C). The manager
// reads a workflow description in the WfCommons-derived JSON format —
// each function annotated by the translator with the HTTP endpoint that
// executes it — translates it into a DAG, and executes the DAG phase by
// phase: all functions of a phase are collected and invoked
// simultaneously by sending HTTP POST requests to their respective
// api_url addresses. Before invoking each function the manager checks
// that its input files are available on the shared drive, and a brief
// delay between phases gives preceding functions time to publish their
// outputs, exactly as described in the paper. A header (starting
// function) and tail (finishing function) frame every execution.
//
// The manager is platform-agnostic: it works against "any serverless
// platform that handles invocations through HTTP requests" — here the
// in-process Knative-like platform, the local-container baseline, or a
// real endpoint.
//
// Both scheduling modes (Options.Scheduling) run on one event loop and
// differ only in its release policy. SchedulePhases is the paper's model
// described above and stays the default. With ScheduleDependency the
// manager abandons phase barriers: a dag.Scheduler tracks the ready
// frontier incrementally and releases each function the instant its
// parents complete, the worker waits for its inputs on the drive (woken
// by sharedfs change notification rather than polling), and no
// inter-phase delay is inserted. The dependency guarantees and the
// Result shape are identical; the dead time — straggler barriers plus
// one fixed delay per DAG level — is gone.
package wfm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"time"

	"wfserverless/internal/dag"
	"wfserverless/internal/journal"
	"wfserverless/internal/memo"
	"wfserverless/internal/obs"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfformat"
)

// HeaderName and TailName are the synthetic framing functions the
// manager adds around every workflow.
const (
	HeaderName = "__workflow_header"
	TailName   = "__workflow_tail"
)

// Scheduling selects how the manager orders invocations.
type Scheduling int

const (
	// SchedulePhases is the paper's execution model: all functions of a
	// topological level are invoked simultaneously, the manager waits
	// for the whole level to drain, and a brief fixed delay separates
	// consecutive levels. Every phase is as slow as its slowest
	// straggler; kept as the default for paper fidelity.
	SchedulePhases Scheduling = iota
	// ScheduleDependency is the event-driven model: each function is
	// dispatched the moment all of its DAG parents have completed and
	// its input files are on the shared drive — no phase barriers and
	// no inter-phase delay. Identical task sets and dependency
	// guarantees, strictly less dead time.
	ScheduleDependency
)

// String names the mode for flags and reports.
func (s Scheduling) String() string {
	switch s {
	case SchedulePhases:
		return "phases"
	case ScheduleDependency:
		return "dependency"
	}
	return fmt.Sprintf("Scheduling(%d)", int(s))
}

// ParseScheduling maps a flag value onto a Scheduling mode.
func ParseScheduling(s string) (Scheduling, error) {
	switch s {
	case "phases", "phase", "":
		return SchedulePhases, nil
	case "dependency", "dep", "eager":
		return ScheduleDependency, nil
	}
	return 0, fmt.Errorf("wfm: unknown scheduling mode %q (want phases or dependency)", s)
}

// Options configures a Manager.
type Options struct {
	// Drive is the shared drive used for input checks and for staging
	// the workflow's external inputs; required.
	Drive sharedfs.Drive
	// Client issues the HTTP invocations; nil uses a dedicated client
	// with a large connection pool (a phase can hold hundreds of
	// simultaneous requests).
	Client *http.Client
	// TimeScale converts the nominal paper-second durations below into
	// wall time; zero defaults to 1.
	TimeScale float64
	// PhaseDelay is the paper's inter-phase delay in nominal seconds
	// ("a brief delay of one second is introduced between each
	// workflow phase"); zero defaults to 1.
	PhaseDelay float64
	// InputWait bounds the per-phase wait for input files on the
	// shared drive, nominal seconds; zero defaults to 30.
	InputWait float64
	// MaxParallel caps simultaneous HTTP requests; zero means
	// unlimited (the paper's behaviour).
	MaxParallel int
	// ContinueOnError keeps executing later phases after a function
	// fails; by default a failed phase aborts the run.
	ContinueOnError bool
	// Retries re-issues failed invocations up to this many extra
	// times (transport errors, 5xx, and 429 responses only) — basic
	// fault-tolerance for flaky endpoints.
	Retries int
	// RetryBackoff is the base delay before the first retry, nominal
	// seconds. Subsequent retries back off exponentially with full
	// jitter — each delay is uniform in [0, min(RetryBackoffMax,
	// RetryBackoff·2^attempt)] — so a burst of failures does not
	// re-stampede the endpoint in lockstep. A Retry-After carried by a
	// 429/503 response overrides the schedule for that retry. Zero
	// keeps retries immediate.
	RetryBackoff float64
	// RetryBackoffMax caps any single retry delay, nominal seconds;
	// zero defaults to 30.
	RetryBackoffMax float64
	// TaskTimeout bounds one task's entire invocation — every attempt
	// plus the backoff sleeps between them — in nominal seconds, so a
	// stalled pod cannot wedge a worker indefinitely. Zero disables.
	// Expiry is terminal for the task (ErrTaskTimeout): its time
	// budget is spent, so no further retries are attempted.
	TaskTimeout float64
	// Breaker enables a per-endpoint circuit breaker over invocations:
	// when an endpoint's recent failure rate crosses the threshold the
	// breaker opens and sheds attempts immediately (ErrCircuitOpen)
	// instead of burning Retries × tasks attempts against a dead
	// service, then probes it half-open after a cooldown. Transitions
	// are surfaced in Result.Breakers and the trace.
	Breaker BreakerOptions
	// Batching coalesces ready invocations bound for the same endpoint
	// into framed /invoke-batch POSTs instead of one HTTP request per
	// task (see BatchOptions). Per-task retry, timeout, breaker,
	// journal, and tracing semantics are unchanged; disabled (the zero
	// value) the wire format is byte-identical to unbatched releases.
	Batching BatchOptions
	// SkipStageInputs disables writing the workflow's external input
	// files to the drive before execution. Staging is on by default
	// (the zero value), matching the paper's header function; callers
	// that pre-populate the drive themselves set this to true.
	SkipStageInputs bool
	// Scheduling selects the execution model; the zero value is
	// SchedulePhases, the paper's phase-barrier loop.
	Scheduling Scheduling
	// Tracer records distributed-trace spans for the run: a root span
	// per workflow, a span per task (backdated to when the task became
	// ready, annotated with queueing latency and attempts), and a span
	// per invocation attempt whose context is injected as a W3C
	// traceparent header on the HTTP POST. Nil disables tracing; an
	// unsampled or disabled run executes the identical hot path.
	Tracer *obs.Tracer
	// Monitor receives live progress counters (tasks ready, running,
	// done, failed; retries; open breakers) and the invocation-latency
	// histogram, for the -telemetry-addr /metrics endpoint. Nil
	// disables monitoring.
	Monitor *Monitor
	// Logger receives structured run-lifecycle events (run start/end,
	// phase dispatch, task failures, breaker transitions). Nil disables
	// logging.
	Logger *slog.Logger
	// Journal, when set, makes the run durable: lifecycle events (run
	// header with workflow fingerprint, task started/completed/failed,
	// run end) are appended to the write-ahead log so a crashed run can
	// be continued with Resume. Run requires the journal to be empty (a
	// fresh directory); Resume requires it to hold a matching run. Nil
	// disables journaling; the hot path is identical.
	Journal *journal.Journal
	// Memoize, when set, enables content-addressed incremental
	// re-execution across runs: before any dispatch the manager
	// resolves every task's fingerprint bottom-up over the compiled DAG
	// (wfformat.TaskFingerprints), probes the cache, and seeds tasks
	// whose fingerprint is cached and whose recorded outputs still
	// verify on the shared drive as completed — they are never invoked
	// and appear in the Result with Memoized=true. Successful
	// completions populate the cache. A hit whose outputs vanished (or
	// diverged, on content-addressed drives) re-runs, exactly like
	// Resume's re-executed tasks. Composes with Journal: cache hits are
	// journaled as task-memoized records and count as completions on
	// resume. Nil disables memoization; the hot path is identical.
	Memoize *memo.Cache
	// AfterTaskDone, when set, is called synchronously after each task
	// completes successfully (and after its completion is journaled),
	// with the cumulative count of tasks completed by this process. It
	// exists for crash-injection harnesses (-crash-after-tasks) and
	// progress hooks; it must be fast and safe for concurrent callers'
	// view of the count to be monotonic but unordered.
	AfterTaskDone func(completed int)
	// Health enables the run-health plane: streaming per-endpoint
	// latency baselines, straggler detection against each endpoint's
	// running median (optionally racing a speculative backup attempt),
	// and a crash flight recorder. Nil disables it; the dispatch hot
	// path is then allocation-identical to previous releases.
	Health *HealthOptions
	// Gate, when set, is acquired around every task invocation (once
	// per task, not per attempt, so retries and batching compose). It
	// is how an embedding service — wfmd's fair-share admission layer —
	// throttles many concurrent Managers against a shared invocation
	// budget without the Managers knowing about each other. Acquire
	// blocking simply delays the task's dispatch; an Acquire error
	// (only expected when ctx is cancelled) fails the task like any
	// other pre-dispatch cancellation. Nil disables the gate; the hot
	// path is identical.
	Gate TaskGate
}

// TaskGate admits task invocations. Implementations must be safe for
// concurrent use; Release is called exactly once per successful
// Acquire. Acquire should return promptly with ctx.Err() once ctx is
// cancelled, and should not fail for any other reason.
type TaskGate interface {
	Acquire(ctx context.Context) error
	Release()
}

// Manager executes workflows.
type Manager struct {
	opts Options
}

// New returns a Manager for the options.
func New(opts Options) (*Manager, error) {
	if opts.Drive == nil {
		return nil, errors.New("wfm: Options need a Drive")
	}
	if opts.TimeScale == 0 {
		opts.TimeScale = 1
	}
	if opts.TimeScale < 0 {
		return nil, errors.New("wfm: negative TimeScale")
	}
	if opts.PhaseDelay == 0 {
		opts.PhaseDelay = 1
	}
	if opts.InputWait == 0 {
		opts.InputWait = 30
	}
	if opts.Client == nil {
		// Size the connection pool to the configured parallelism rather
		// than a fixed 1024: MaxParallel bounds how many requests can be
		// in flight, so idle connections beyond it only hold sockets.
		pool := opts.MaxParallel
		if pool <= 0 {
			pool = 1024
		}
		tr := &http.Transport{
			MaxIdleConns:        pool,
			MaxIdleConnsPerHost: pool,
			IdleConnTimeout:     90 * time.Second,
			// Bodies are compact JSON (or batch frames); bigger socket
			// buffers keep large fan-outs off the syscall floor, and
			// gzip on loopback-scale payloads costs more CPU than the
			// bytes it saves.
			WriteBufferSize:    64 << 10,
			ReadBufferSize:     64 << 10,
			DisableCompression: true,
		}
		opts.Client = &http.Client{Transport: tr}
	}
	switch opts.Scheduling {
	case SchedulePhases, ScheduleDependency:
	default:
		return nil, fmt.Errorf("wfm: unknown Scheduling %d", opts.Scheduling)
	}
	if opts.Retries < 0 {
		return nil, errors.New("wfm: negative Retries")
	}
	if opts.RetryBackoff < 0 || opts.RetryBackoffMax < 0 || opts.TaskTimeout < 0 {
		return nil, errors.New("wfm: negative RetryBackoff/RetryBackoffMax/TaskTimeout")
	}
	if err := opts.Breaker.validate(); err != nil {
		return nil, err
	}
	if err := opts.Batching.validate(); err != nil {
		return nil, err
	}
	if err := opts.Health.validate(); err != nil {
		return nil, err
	}
	return &Manager{opts: opts}, nil
}

func (m *Manager) scaled(nominalSeconds float64) time.Duration {
	return time.Duration(nominalSeconds * m.opts.TimeScale * float64(time.Second))
}

// TaskResult records one function invocation.
type TaskResult struct {
	Name     string
	Category string
	Phase    int
	// Ready is when the scheduler deemed the task runnable: in phase
	// mode, when its phase began dispatching; in dependency mode, when
	// its last parent completed (or run start for roots). The gap to
	// Start is time spent queued behind MaxParallel or waiting for
	// input files.
	Ready time.Duration
	Start time.Duration // offset from run start (wall)
	End   time.Duration
	// Attempts is how many invocation attempts the resilience layer
	// made for the task, including attempts shed by an open circuit
	// breaker; 1 means it succeeded (or failed terminally) first try.
	Attempts int
	// Recovered marks a task restored from the run journal on Resume:
	// it completed in a previous process and was not re-invoked. Its
	// timings are zero and Response is nil.
	Recovered bool
	// Memoized marks a cache-hit task under Options.Memoize: an earlier
	// run completed identical content and its outputs verified on the
	// drive, so it was seeded as completed and never invoked. Its
	// timings are zero and Response is nil.
	Memoized bool
	Response *wfbench.Response
	Err      error
}

// QueueWait returns the ready→start queueing latency: how long the task
// sat runnable before its HTTP invocation was issued.
func (tr *TaskResult) QueueWait() time.Duration {
	if tr.Start < tr.Ready {
		return 0
	}
	return tr.Start - tr.Ready
}

// Result summarizes one workflow execution.
type Result struct {
	Workflow string
	// Scheduling is the mode that produced this result.
	Scheduling Scheduling
	// Phases lists the function names per executed phase, including
	// the synthetic header and tail. In dependency mode these are the
	// static topological levels, kept for comparability — execution
	// order within them is event-driven.
	Phases [][]string
	// Makespan is the nominal end-to-end time in paper seconds
	// (wall time divided by TimeScale).
	Makespan float64
	// Wall is the measured wall-clock duration.
	Wall time.Duration
	// Tasks holds per-function results keyed by name.
	Tasks map[string]*TaskResult
	// Failed lists functions that returned errors, sorted.
	Failed []string
	// Warnings records non-fatal anomalies the run pressed on through
	// (e.g. a phase dispatched under ContinueOnError although its
	// inputs never appeared on the shared drive).
	Warnings []string
	// Breakers lists circuit-breaker state transitions observed during
	// the run, in time order (empty unless Options.Breaker is enabled
	// and an endpoint misbehaved).
	Breakers []BreakerTransition
	// Resume summarizes what a resumed run recovered from its journal;
	// nil for fresh runs.
	Resume *ResumeReport
	// Memo summarizes what the memo cache contributed; nil unless
	// Options.Memoize was set.
	Memo *MemoReport
	// Health carries the run-health summary — per-endpoint baselines,
	// flagged stragglers, speculation accounting; nil unless
	// Options.Health was set.
	Health *HealthReport
	// TraceID identifies the run's distributed trace when the run was
	// sampled (Options.Tracer set and the root span recorded).
	TraceID string
	// Spans holds the spans collected for this run across every layer
	// that shares the manager's Tracer — the WFM itself plus, for the
	// in-process platform, the platform and wfbench spans.
	Spans []obs.Span
}

// PhaseError reports a phase whose functions failed.
type PhaseError struct {
	Phase  int
	Failed []string
	Errs   []error
}

func (e *PhaseError) Error() string {
	return fmt.Sprintf("wfm: phase %d: %d function(s) failed: %v (first: %v)",
		e.Phase, len(e.Failed), e.Failed, e.Errs[0])
}

// Unwrap exposes the first underlying error.
func (e *PhaseError) Unwrap() error { return e.Errs[0] }

// Run executes the workflow under the configured Scheduling mode. Every
// task must carry an api_url (set by a translator); Run validates the
// workflow first. With Options.Journal set the journal must be empty —
// continuing a previous run is Resume's job.
func (m *Manager) Run(ctx context.Context, w *wfformat.Workflow) (*Result, error) {
	csr, p, err := m.prepare(w)
	if err != nil {
		return nil, err
	}
	if j := m.opts.Journal; j != nil && len(j.Records()) > 0 {
		return nil, errors.New("wfm: journal already holds a run; use Resume (or point -journal at a fresh directory)")
	}
	return m.run(ctx, w, csr, p, nil)
}

// Resume continues a journaled run that a previous process started: it
// replays Options.Journal, validates the recorded workflow fingerprint
// against w, verifies that every recorded-completed task's outputs are
// still on the shared drive (tasks whose products vanished re-run), and
// executes only what remains. An empty journal degenerates to a fresh
// Run. The Result covers the whole workflow — recovered tasks appear
// with Recovered=true and zero-duration timings — and Result.Resume
// reports how many invocations the journal saved.
func (m *Manager) Resume(ctx context.Context, w *wfformat.Workflow) (*Result, error) {
	j := m.opts.Journal
	if j == nil {
		return nil, errors.New("wfm: Resume needs Options.Journal")
	}
	csr, p, err := m.prepare(w)
	if err != nil {
		return nil, err
	}
	if len(j.Records()) == 0 {
		return m.run(ctx, w, csr, p, nil)
	}
	rec, err := m.recoverRun(w, p.len(), j.Records(), j.Torn())
	if err != nil {
		return nil, err
	}
	m.verifyOutputs(rec)
	return m.run(ctx, w, csr, p, rec)
}

// prepare validates and compiles the workflow into its CSR and
// invocation plan — the shared front half of Run and Resume.
func (m *Manager) prepare(w *wfformat.Workflow) (*dag.CSR, *invocationPlan, error) {
	if err := m.validateRunnable(w); err != nil {
		return nil, nil, err
	}
	csr, tasks, err := w.Compile()
	if err != nil {
		return nil, nil, err
	}
	p, err := newInvocationPlan(tasks)
	if err != nil {
		return nil, nil, err
	}
	return csr, p, nil
}

// run drives one execution (fresh or resumed): it opens the journal's
// run framing — header for fresh runs, resume marker for recovered ones
// — hands the run state to the scheduling loop, and closes the framing
// with a run-end record whose status reflects how the loop exited.
func (m *Manager) run(ctx context.Context, w *wfformat.Workflow, csr *dag.CSR, p *invocationPlan, rec *recovery) (*Result, error) {
	st := &runState{rec: rec, afterDone: m.opts.AfterTaskDone}
	if m.opts.Health != nil {
		st.health = m.newHealthState()
		defer st.health.close()
		st.health.event("run-start", "", "", 0, w.Name)
	}
	if m.opts.Memoize != nil {
		st.memo = m.probeMemo(csr, p, rec)
	}
	if j := m.opts.Journal; j != nil {
		var prior []int32
		if rec != nil {
			prior = rec.attempts
		}
		st.rj = newRunJournal(j, p.len(), prior)
		if rec == nil {
			h := &runHeader{
				Version:     journalRunHeaderVersion,
				Fingerprint: wfformat.Fingerprint(w),
				OptionsHash: m.opts.optionsHash(),
				Scheduling:  m.opts.Scheduling,
				TaskCount:   p.len(),
				Workflow:    w.Name,
				StartedUnix: time.Now().Unix(),
			}
			st.rj.append(recRunHeader, h.encode())
		} else {
			st.rj.append(recRunResumed, encodeRunResumed(
				rec.report.RecordedCompleted, rec.report.SkippedInvocations, rec.report.Reexecuted))
		}
		// Cache hits are completions this process will never re-invoke:
		// journal them with the framing so even a crash before the first
		// dispatch leaves a journal that resumes without re-running them.
		if st.memo != nil {
			for _, id := range st.memo.hitIDs {
				st.rj.taskMemoized(id, p.tasks[id])
			}
		}
		// The framing records must survive even an immediate crash: sync
		// them through before the first task is dispatched.
		if err := j.Sync(); err != nil {
			return nil, fmt.Errorf("wfm: journal: %w", err)
		}
	}

	res, err := m.execute(ctx, w, csr, p, st)
	if res != nil {
		if rec != nil {
			r := rec.report
			res.Resume = &r
			if rec.header.OptionsHash != m.opts.optionsHash() {
				res.Warnings = append(res.Warnings,
					"resume: options differ from the original run (journal records a different options hash)")
			}
		}
		if st.memo != nil {
			res.Memo = st.memo.report()
			if res.Memo.CacheRepaired {
				res.Warnings = append(res.Warnings, fmt.Sprintf(
					"memo: cache file was corrupt; %d unusable byte(s) dropped, affected entries re-executed",
					res.Memo.CacheDroppedBytes))
			}
			if merr := st.memo.cache.Err(); merr != nil {
				res.Warnings = append(res.Warnings, fmt.Sprintf(
					"memo: cache appends failing, this run's results are not being cached: %v", merr))
			}
		}
		if jerr := st.rj.takeError(); jerr != nil {
			res.Warnings = append(res.Warnings, fmt.Sprintf("journal: appends failing, run no longer durable: %v", jerr))
		}
		res.Health = st.health.report()
	}
	if st.health != nil {
		status := "ok"
		switch {
		case ctx.Err() != nil:
			status = "cancelled"
		case err != nil:
			status = "failed"
		}
		st.health.event("run-end", "", "", 0, status)
	}
	// Flush this run's manifests so the next process's probe sees them;
	// append errors stay sticky in the cache and were surfaced above.
	if st.memo != nil {
		st.memo.cache.Sync()
	}
	if st.rj != nil {
		status := runEndOK
		switch {
		case ctx.Err() != nil:
			status = runEndCancelled
		case err != nil:
			status = runEndFailed
		}
		failed := 0
		if res != nil {
			failed = len(res.Failed)
		}
		st.rj.runEnd(status, failed)
	}
	return res, err
}

// validateRunnable checks that the workflow is executable: structurally
// valid, translated (api_url on every task), and carrying the WfBench
// argument block invoke reads — malformed translated JSON fails here
// with a clear error instead of panicking mid-run.
func (m *Manager) validateRunnable(w *wfformat.Workflow) error {
	if err := w.Validate(); err != nil {
		return err
	}
	for _, name := range w.TaskNames() {
		t := w.Tasks[name]
		if t.Command.APIURL == "" {
			return fmt.Errorf("wfm: task %q has no api_url; run a translator first", name)
		}
		if len(t.Command.Arguments) == 0 {
			return fmt.Errorf("wfm: task %q has no argument block; malformed translated workflow", name)
		}
	}
	return nil
}

// stageHeader stages the workflow's external inputs (unless disabled)
// and records the synthetic header task. The manifest comes off the
// invocation plan, resolved once at prepare time — not rescanned from
// the workflow inside the execution wall.
func (m *Manager) stageHeader(p *invocationPlan, res *Result, start time.Time) error {
	header := &TaskResult{Name: HeaderName, Category: "header", Phase: 0}
	if !m.opts.SkipStageInputs {
		stage := make(map[string]int64, len(p.ext))
		for _, f := range p.ext {
			stage[f.Name] = f.SizeInBytes
		}
		if err := sharedfs.Stage(m.opts.Drive, stage); err != nil {
			header.Err = err
			res.Tasks[HeaderName] = header
			return fmt.Errorf("wfm: staging inputs: %w", err)
		}
	}
	header.End = time.Since(start)
	res.Tasks[HeaderName] = header
	res.Phases = append(res.Phases, []string{HeaderName})
	return nil
}

// levelPhases renders the CSR's topological levels as name lists. IDs
// are interned in sorted-name order, so the ascending-ID level slices
// are already lexicographically sorted — identical to the Phases()
// output the phase report used before the index-based hot path.
func levelPhases(c *dag.CSR, levels [][]int32) [][]string {
	out := make([][]string, len(levels))
	for i, ids := range levels {
		names := make([]string, len(ids))
		for j, id := range ids {
			names[j] = c.Name(id)
		}
		out[i] = names
	}
	return out
}

// traceReplay annotates the run's root span with journal context and,
// on resumed runs, emits a journal:replay child span carrying the
// recovery counts.
func (m *Manager) traceReplay(root *obs.Span, st *runState) {
	if root == nil {
		return
	}
	if st.rj != nil {
		root.SetAttr("journal", "on")
	}
	if st.rec != nil {
		s := m.opts.Tracer.StartChildOf(root, "journal:replay")
		s.SetInt("recorded_completed", st.rec.report.RecordedCompleted)
		s.SetInt("skipped_invocations", st.rec.report.SkippedInvocations)
		s.SetInt("reexecuted", st.rec.report.Reexecuted)
		s.Finish()
	}
}

// traceMemo annotates the root span with the memo probe's outcome so a
// memoized run's trace explains why most tasks have no spans.
func (m *Manager) traceMemo(root *obs.Span, st *runState) {
	if root == nil || st.memo == nil {
		return
	}
	root.SetAttr("memoize", "on")
	s := m.opts.Tracer.StartChildOf(root, "memo:probe")
	s.SetInt("memo_hits", len(st.memo.hitIDs))
	s.SetInt("memo_misses", st.memo.misses)
	s.SetInt("skipped_output_bytes", int(st.memo.skipped))
	s.Finish()
}

// awaitInputs waits until every input file of the phase's functions is
// present on the shared drive.
func (m *Manager) awaitInputs(ctx context.Context, p *invocationPlan, level []int32) error {
	needed := make(map[string]struct{})
	for _, id := range level {
		for _, in := range p.tasks[id].InputFiles() {
			needed[in] = struct{}{}
		}
	}
	if len(needed) == 0 {
		return nil
	}
	names := make([]string, 0, len(needed))
	for n := range needed {
		names = append(names, n)
	}
	sort.Strings(names)
	waitCtx, cancel := context.WithTimeout(ctx, m.scaled(m.opts.InputWait))
	defer cancel()
	missing, err := sharedfs.WaitFor(waitCtx, m.opts.Drive, names, m.scaled(m.opts.InputWait)/100)
	if err != nil {
		return fmt.Errorf("inputs missing on shared drive: %v: %w", missing, err)
	}
	return nil
}

// startRunTrace opens the run's root span (nil when tracing is off or
// the run loses the sampling draw) and returns a finisher that, on any
// exit path, closes the root and drains the tracer's collector into
// the Result.
func (m *Manager) startRunTrace(workflow string, res *Result) (*obs.Span, func()) {
	root := m.opts.Tracer.StartRoot("workflow:"+workflow, obs.LayerWFM)
	root.SetAttr("scheduling", res.Scheduling.String())
	return root, func() {
		if root == nil {
			return
		}
		res.TraceID = root.Context().TraceID.String()
		root.Finish()
		res.Spans = m.opts.Tracer.Take()
	}
}

// finishTaskSpan annotates and closes one task's span: ready→start
// queueing latency, attempt count, and the terminal error if any.
func (m *Manager) finishTaskSpan(ts *obs.Span, tr *TaskResult) {
	if ts == nil {
		return
	}
	ts.SetAttr("category", tr.Category)
	ts.SetInt("phase", tr.Phase)
	ts.SetFloat("queue_ms", float64(tr.QueueWait().Microseconds())/1000)
	ts.SetInt("attempts", tr.Attempts)
	if tr.Err != nil {
		ts.SetAttr("error", tr.Err.Error())
	}
	ts.Finish()
}

// invoke POSTs one function's WfBench request to its api_url through
// the resilience layer: a per-task deadline (Options.TaskTimeout) over
// all attempts, retries with full-jitter exponential backoff honouring
// server Retry-After hints, and the endpoint's circuit breaker. It
// returns the response, the number of attempts made, and the terminal
// error if the task failed. When parent is a sampled span, each attempt
// emits a child span and injects its context as the POST's traceparent
// header; a nil parent keeps the whole path span-free.
func (m *Manager) invoke(ctx context.Context, p *invocationPlan, id int32, rs *resilience, parent *obs.Span) (*wfbench.Response, int, error) {
	task := p.tasks[id]
	tctx := ctx
	if m.opts.TaskTimeout > 0 {
		var cancel context.CancelFunc
		tctx, cancel = context.WithTimeout(ctx, m.scaled(m.opts.TaskTimeout))
		defer cancel()
	}
	br := rs.breakerFor(task.Command.APIURL)
	var resp *wfbench.Response
	var err error
	for attempt := 0; ; attempt++ {
		var retriable bool
		var retryAfter time.Duration
		allowed := true
		if br != nil {
			allowed, retryAfter = br.allow()
		}
		if attempt > 0 {
			m.opts.Monitor.retried()
			rs.health.event("retry", task.Name, task.Command.APIURL, attempt+1, "")
		}
		as := m.opts.Tracer.StartChildOf(parent, "invoke")
		as.SetInt("attempt", attempt+1)
		as.SetAttr("endpoint", task.Command.APIURL)
		if !allowed {
			resp, err = nil, fmt.Errorf("wfm: %s: %s: %w", task.Name, task.Command.APIURL, ErrCircuitOpen)
			retriable = true
			as.SetAttr("breaker", BreakerOpen)
		} else {
			if rs.health != nil {
				resp, retriable, retryAfter, err = rs.health.attempt(tctx, p, id, rs, attempt, as, parent)
			} else if rs.batch != nil {
				resp, retriable, retryAfter, err = rs.batch.invokeOnce(tctx, id, as.Context())
			} else {
				resp, retriable, retryAfter, err = m.invokeOnce(tctx, p, id, as.Context())
			}
			if br != nil {
				br.record(classify(ctx, tctx, retriable, err))
			}
		}
		if as != nil {
			if resp != nil && resp.ColdStart {
				as.SetAttr("cold_start", "true")
			}
			if err != nil {
				as.SetAttr("error", err.Error())
			}
			as.Finish()
		}
		if err != nil && retryAfter > 0 {
			rs.health.event("throttle", task.Name, task.Command.APIURL, attempt+1, err.Error())
		}
		attempts := attempt + 1
		if err == nil {
			return resp, attempts, nil
		}
		// A cancelled parent context always wins: return its error
		// promptly, even mid-backoff. The task's own expired deadline
		// is terminal too, but reported as ErrTaskTimeout so callers
		// can tell a wedged endpoint from a cancelled run.
		if cerr := ctx.Err(); cerr != nil {
			return resp, attempts, cerr
		}
		if tctx.Err() != nil {
			return resp, attempts, fmt.Errorf("wfm: %s: %w after %d attempt(s): %v",
				task.Name, ErrTaskTimeout, attempts, err)
		}
		if !retriable || attempt >= m.opts.Retries {
			return resp, attempts, err
		}
		if delay := m.retryDelay(attempt, retryAfter); delay > 0 {
			t := time.NewTimer(delay)
			select {
			case <-tctx.Done():
				t.Stop()
				if cerr := ctx.Err(); cerr != nil {
					return resp, attempts, cerr
				}
				return resp, attempts, fmt.Errorf("wfm: %s: %w during backoff after %d attempt(s): %v",
					task.Name, ErrTaskTimeout, attempts, err)
			case <-t.C:
			}
		}
	}
}

// classify maps one attempt's result onto a breaker outcome: only
// endpoint-side trouble (transport errors, 5xx, 429, a stall past the
// task deadline) counts against the endpoint's health; client-side
// rejections and function-level errors prove the endpoint is serving.
func classify(ctx, tctx context.Context, retriable bool, err error) attemptOutcome {
	if err == nil {
		return outcomeSuccess
	}
	if ctx.Err() != nil {
		return outcomeAborted
	}
	if retriable || tctx.Err() != nil {
		return outcomeFailure
	}
	return outcomeSuccess
}

// invokeOnce performs a single HTTP invocation from the plan's
// pre-rendered artifacts: a shallow clone of the task's request
// template, a pooled reader over the task's arena body, and a pooled
// decode buffer for the response. A sampled span context is injected as
// the request's traceparent header (on a fresh header map — the shared
// template header is never mutated). retriable reports whether a
// failure is worth retrying (network error, 5xx, or 429); retryAfter
// carries the server's Retry-After hint when it sent one.
func (m *Manager) invokeOnce(ctx context.Context, p *invocationPlan, id int32, sc obs.SpanContext) (_ *wfbench.Response, retriable bool, retryAfter time.Duration, _ error) {
	task := p.tasks[id]
	req := p.request(ctx, id)
	if sc.Sampled {
		h := make(http.Header, 2)
		h["Content-Type"] = sharedJSONHeader["Content-Type"]
		h["Traceparent"] = []string{sc.Traceparent()}
		req.Header = h
	}
	hres, err := m.opts.Client.Do(req)
	if err != nil {
		return nil, ctx.Err() == nil, 0, fmt.Errorf("wfm: %s: request: %w", task.Name, err)
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hres.Body, 1024))
		retriable = hres.StatusCode >= 500 || hres.StatusCode == http.StatusTooManyRequests
		if hres.StatusCode == http.StatusTooManyRequests || hres.StatusCode == http.StatusServiceUnavailable {
			retryAfter = ParseRetryAfter(hres.Header.Get("Retry-After"))
		}
		return nil, retriable, retryAfter,
			fmt.Errorf("wfm: %s: HTTP %d: %s", task.Name, hres.StatusCode, strings.TrimSpace(string(msg)))
	}
	buf := decodeBufs.Get().(*bytes.Buffer)
	buf.Reset()
	var resp wfbench.Response
	_, err = buf.ReadFrom(hres.Body)
	if err == nil {
		err = json.Unmarshal(buf.Bytes(), &resp)
	}
	decodeBufs.Put(buf)
	if err != nil {
		return nil, false, 0, fmt.Errorf("wfm: %s: decode: %w", task.Name, err)
	}
	if !resp.OK {
		return &resp, false, 0, fmt.Errorf("wfm: %s: function error: %s", task.Name, resp.Error)
	}
	return &resp, false, 0, nil
}

// PhaseStats summarizes per-phase behaviour of a Result, used by the
// characterization tooling.
type PhaseStats struct {
	Phase     int
	Functions int
	// WallSpan is the wall time from the first start to the last end
	// in the phase.
	WallSpan time.Duration
}

// PhaseBreakdown derives per-phase stats from a Result (excluding the
// synthetic header/tail).
func PhaseBreakdown(res *Result) []PhaseStats {
	byPhase := make(map[int][]*TaskResult)
	maxPhase := 0
	for _, tr := range res.Tasks {
		if tr.Name == HeaderName || tr.Name == TailName {
			continue
		}
		byPhase[tr.Phase] = append(byPhase[tr.Phase], tr)
		if tr.Phase > maxPhase {
			maxPhase = tr.Phase
		}
	}
	var out []PhaseStats
	for p := 1; p <= maxPhase; p++ {
		trs := byPhase[p]
		if len(trs) == 0 {
			continue
		}
		first, last := trs[0].Start, trs[0].End
		for _, tr := range trs[1:] {
			if tr.Start < first {
				first = tr.Start
			}
			if tr.End > last {
				last = tr.End
			}
		}
		out = append(out, PhaseStats{Phase: p, Functions: len(trs), WallSpan: last - first})
	}
	return out
}

package wfm

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"wfserverless/internal/dag"
	"wfserverless/internal/obs"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfformat"
)

// dispatchItem is one runnable task handed from the event loop to the
// worker pool, identified by its interned DAG ID.
type dispatchItem struct {
	id    int32
	ready time.Duration // when the loop released the task
}

// completion pairs a finished task's ID with its result so the event
// loop can feed the release policy without a name lookup.
type completion struct {
	id int32
	tr *TaskResult
}

// execute runs the workflow on the manager's single event loop: a fixed
// worker pool issues the HTTP invocations and a completion channel feeds
// finished tasks back into this goroutine, which owns all scheduling and
// result state and so needs no locking. The whole loop runs on interned
// int32 task IDs over the compiled CSR; strings only appear in the
// TaskResults handed back to callers. Options.Scheduling only chooses the
// release policy — which tasks the loop hands to the pool, and when:
//
//   - ScheduleDependency: a dag.Scheduler releases each task the moment
//     its last parent completes, and the worker then waits for that
//     task's inputs on the shared drive (woken by sharedfs change
//     notification where available). Descendants of a failed task are
//     never invoked — their inputs cannot appear — and are recorded as
//     skipped failures; without ContinueOnError the first failure also
//     cancels everything in flight or queued.
//   - SchedulePhases: the paper's barrier (Section III-C). Topological
//     level k+1 is released only after every task of level k is
//     accounted for and PhaseDelay has elapsed, and the loop awaits the
//     level's inputs once before releasing it, so workers do no
//     per-task wait. Siblings of a failed task run on; a level that
//     drains with failures aborts the run with a PhaseError unless
//     ContinueOnError is set.
//
// Tasks seeded from the journal or the memo cache are recorded up front
// and never released; a fully seeded level is passed over with no
// delay. On every exit path — success, failure, cancellation, or abort —
// the workers are drained and the Result carries the tasks accounted so
// far, Wall, and Makespan.
func (m *Manager) execute(ctx context.Context, w *wfformat.Workflow, csr *dag.CSR, p *invocationPlan, st *runState) (*Result, error) {
	phased := m.opts.Scheduling == SchedulePhases
	levels := csr.LevelSlices()
	res := &Result{
		Workflow:   w.Name,
		Scheduling: m.opts.Scheduling,
		Tasks:      make(map[string]*TaskResult, p.len()+2),
	}
	start := time.Now()
	rs := m.newResilience(start)
	rs.health = st.health
	// Breaker transitions belong in the Result on every exit path.
	defer func() { res.Breakers = rs.take() }()
	root, finishTrace := m.startRunTrace(w.Name, res)
	defer finishTrace()
	m.traceReplay(root, st)
	m.traceMemo(root, st)
	mon := m.opts.Monitor
	mon.runStarted(w.Name, m.opts.Scheduling, p.len())
	if l := m.opts.Logger; l != nil {
		l.Info("workflow run starting", "workflow", w.Name, "tasks", p.len(),
			"phases", len(levels), "scheduling", m.opts.Scheduling.String())
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Batch POSTs ride runCtx so a single task abandoning its wait never
	// aborts its batch-mates' shared request; closed (runs before cancel)
	// to flush any linger-window stragglers on every exit path.
	rs.batch = m.newBatcher(runCtx, p)
	rs.batch.setHealth(st.health)
	defer rs.batch.close()
	defer func() {
		res.Wall = time.Since(start)
		res.Makespan = res.Wall.Seconds() / m.opts.TimeScale
		if l := m.opts.Logger; l != nil {
			l.Info("workflow run finished",
				"workflow", w.Name, "wall", res.Wall, "failed", len(res.Failed))
		}
	}()

	// Header: stage external inputs so root functions find their data.
	if err := m.stageHeader(p, res, start); err != nil {
		return res, err
	}

	// Fold the pre-completed set — the journal's verified done-set plus
	// the memo cache's verified hits — in before any dispatch: seeded
	// tasks are recorded as results and the release frontier starts past
	// them.
	n := p.len()
	var sched *dag.Scheduler
	if !phased {
		sched = dag.NewSchedulerCSR(csr)
	}
	if seeds := st.seedIDs(); len(seeds) > 0 {
		if sched != nil {
			if err := sched.SeedCompletedIDs(seeds); err != nil {
				return res, fmt.Errorf("wfm: seeding pre-completed state: %w", err)
			}
		}
		seedResults(p, csr, st, seeds, res.Tasks)
		n -= len(seeds)
	}

	workers := m.opts.MaxParallel
	if workers <= 0 || workers > n {
		workers = n
	}
	if workers == 0 {
		workers = 1 // fully seeded run: the loop below drains instantly
	}
	// Both channels hold every task, so neither workers nor the event
	// loop can ever block on the other side having gone away.
	dispatch := make(chan dispatchItem, n)
	completions := make(chan completion, n)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for item := range dispatch {
				completions <- completion{item.id, m.runTask(runCtx, p, csr, item, start, rs, root, st)}
			}
		}()
	}

	enqueue := func(ids []int32) {
		now := time.Since(start)
		mon.taskReady(len(ids))
		for _, id := range ids {
			dispatch <- dispatchItem{id: id, ready: now}
		}
	}
	record := func(tr *TaskResult) {
		res.Tasks[tr.Name] = tr
		if tr.Err != nil {
			res.Failed = append(res.Failed, tr.Name)
			if l := m.opts.Logger; l != nil {
				l.Warn("task failed", "task", tr.Name, "phase", tr.Phase,
					"attempts", tr.Attempts, "err", tr.Err)
			}
		}
	}

	// Phase-policy state: the next level to consider, how many tasks of
	// the released level are still out, and that level's failures.
	next, pending := 0, 0
	var levelFailed []*TaskResult
	// releaseLevel hands the pool the next level with anything left to
	// run, after checking once that the level's inputs are on the drive.
	releaseLevel := func() error {
		for next < len(levels) {
			toRun := make([]int32, 0, len(levels[next]))
			for _, id := range levels[next] {
				if !st.seededID(id) {
					toRun = append(toRun, id)
				}
			}
			next++
			if len(toRun) == 0 {
				continue
			}
			if l := m.opts.Logger; l != nil {
				l.Debug("dispatching phase", "phase", next, "tasks", len(toRun))
			}
			if err := m.awaitInputs(ctx, p, toRun); err != nil {
				if !m.opts.ContinueOnError {
					return fmt.Errorf("wfm: phase %d: %w", next, err)
				}
				// The phase still runs — its functions will fail on their
				// own — but the run must record why, not drop it.
				res.Warnings = append(res.Warnings, fmt.Sprintf("phase %d: %v", next, err))
			}
			pending = len(toRun)
			enqueue(toRun)
			return nil
		}
		return nil
	}
	// levelDrained closes the released level once its last task is
	// accounted for: abort on failures unless ContinueOnError, otherwise
	// hold the paper's brief inter-phase delay and release the next one.
	levelDrained := func(more bool) error {
		if len(levelFailed) > 0 && !m.opts.ContinueOnError {
			sort.Slice(levelFailed, func(i, j int) bool { return levelFailed[i].Name < levelFailed[j].Name })
			pe := &PhaseError{Phase: next}
			for _, tr := range levelFailed {
				pe.Failed = append(pe.Failed, tr.Name)
				pe.Errs = append(pe.Errs, tr.Err)
			}
			return pe
		}
		levelFailed = levelFailed[:0]
		if !more {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(m.scaled(m.opts.PhaseDelay)):
		}
		return releaseLevel()
	}

	// Every task is accounted exactly once — via a worker completion or
	// via skip propagation from a failed ancestor — so the loop ends when
	// the count drains, or earlier on a stop error (a phase abort, a
	// cancellation between phases, or corrupt scheduler state), which
	// breaks out rather than returning so the pool is always drained
	// below, never leaked. The ID slices the scheduler returns are
	// scratch, valid until its next call — enqueue and the skip loop
	// consume them before that.
	var stopErr error
	if phased {
		stopErr = releaseLevel()
	} else {
		enqueue(sched.TakeReadyIDs())
	}
	for accounted := 0; accounted < n && stopErr == nil; {
		c := <-completions
		accounted++
		record(c.tr)
		if phased {
			if c.tr.Err != nil {
				levelFailed = append(levelFailed, c.tr)
			}
			if pending--; pending == 0 {
				stopErr = levelDrained(accounted < n)
			}
			continue
		}
		if c.tr.Err != nil {
			if !m.opts.ContinueOnError {
				cancel()
			}
			skipped, serr := sched.FailID(c.id)
			if serr != nil {
				stopErr = fmt.Errorf("wfm: scheduler state: %w", serr)
				break
			}
			now := time.Since(start)
			for _, sid := range skipped {
				accounted++
				task := p.tasks[sid]
				mon.taskSkipped()
				err := fmt.Errorf("wfm: %s: skipped: ancestor %s failed", task.Name, c.tr.Name)
				st.rj.taskFailed(sid, true, err)
				record(&TaskResult{
					Name:     task.Name,
					Category: task.Category,
					Phase:    int(csr.Level(sid)) + 1,
					Ready:    now,
					Start:    now,
					End:      now,
					Err:      err,
				})
			}
			continue
		}
		newly, serr := sched.CompleteID(c.id)
		if serr != nil {
			stopErr = fmt.Errorf("wfm: scheduler state: %w", serr)
			break
		}
		enqueue(newly)
	}
	if stopErr != nil {
		// Abort in-flight work before draining; queued items still run
		// (and fail fast on the cancelled context) so workers exit.
		cancel()
	}
	close(dispatch)
	wg.Wait()

	// Report the static phase structure in both policies, for analysis,
	// Gantt charts, and per-phase breakdowns.
	res.Phases = append(res.Phases, levelPhases(csr, levels)...)
	now := time.Since(start)
	res.Tasks[TailName] = &TaskResult{Name: TailName, Category: "tail", Phase: len(levels) + 1, Start: now, End: now}
	res.Phases = append(res.Phases, []string{TailName})
	sort.Strings(res.Failed)
	switch {
	case stopErr != nil:
		return res, stopErr
	case ctx.Err() != nil:
		return res, ctx.Err()
	case len(res.Failed) > 0:
		return res, fmt.Errorf("wfm: %d function(s) failed: %v", len(res.Failed), res.Failed)
	}
	return res, nil
}

// runTask executes one released task on a worker: under the dependency
// policy, wait for its input files (event-driven on drives that support
// watching); then pass the gate and invoke.
func (m *Manager) runTask(ctx context.Context, p *invocationPlan, csr *dag.CSR, item dispatchItem, start time.Time, rs *resilience, root *obs.Span, st *runState) *TaskResult {
	task := p.tasks[item.id]
	tr := &TaskResult{
		Name:     task.Name,
		Category: task.Category,
		Phase:    int(csr.Level(item.id)) + 1,
		Ready:    item.ready,
	}
	mon := m.opts.Monitor
	mon.taskStarted()
	ts := m.opts.Tracer.StartChildOf(root, task.Name)
	ts.SetStart(start.Add(item.ready))
	if st.memo != nil {
		ts.SetAttr("memo_hit", "false")
	}
	finish := func() {
		tr.End = time.Since(start)
		st.taskDone(item.id, p, tr)
		mon.taskFinished(tr.End-tr.Start, tr.Err != nil)
		m.finishTaskSpan(ts, tr)
	}
	if err := ctx.Err(); err != nil {
		tr.Start = time.Since(start)
		tr.Err = err
		finish()
		return tr
	}
	if m.opts.Scheduling == ScheduleDependency {
		if inputs := task.InputFiles(); len(inputs) > 0 && !sharedfs.AllExist(m.opts.Drive, inputs) {
			waitCtx, cancel := context.WithTimeout(ctx, m.scaled(m.opts.InputWait))
			missing, err := sharedfs.WaitFor(waitCtx, m.opts.Drive, inputs, m.scaled(m.opts.InputWait)/100)
			cancel()
			if err != nil {
				tr.Start = time.Since(start)
				tr.Err = fmt.Errorf("wfm: %s: inputs missing on shared drive: %v: %w", task.Name, missing, err)
				finish()
				return tr
			}
		}
	}
	if g := m.opts.Gate; g != nil {
		if err := g.Acquire(ctx); err != nil {
			tr.Start = time.Since(start)
			tr.Err = err
			finish()
			return tr
		}
		defer g.Release()
	}
	st.rj.taskStarted(item.id)
	st.health.taskStarted(task)
	tr.Start = time.Since(start)
	tr.Response, tr.Attempts, tr.Err = m.invoke(ctx, p, item.id, rs, ts)
	finish()
	return tr
}

package wfm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"wfserverless/internal/journal"
	"wfserverless/internal/wfformat"
)

// Journal record kinds, layered on the opaque (kind, payload) records of
// internal/journal. Payloads are little-endian varint encodings keyed by
// the CSR's interned int32 task IDs — stable across processes because
// Compile interns names in sorted order and the run header's fingerprint
// pins the workflow content.
const (
	// recRunHeader opens a run: format version, workflow fingerprint,
	// options hash, scheduling mode, task count, workflow name, unix
	// start time.
	recRunHeader uint8 = 1
	// recTaskStarted marks one execution attempt of a task: id, attempt
	// number (1-based, counted across process lifetimes).
	recTaskStarted uint8 = 2
	// recTaskCompleted marks a successful task: id plus its output file
	// names and sizes, so resume can verify the products still exist.
	recTaskCompleted uint8 = 3
	// recTaskFailed marks a terminal failure: id, flags (bit 0 = skipped
	// because an ancestor failed), error message.
	recTaskFailed uint8 = 4
	// recRunEnd closes a run attempt: status byte (0 ok, 1 failed,
	// 2 cancelled), failed-task count.
	recRunEnd uint8 = 5
	// recRunResumed marks a resume point: recorded-completed, verified
	// (outputs present, invocation skipped), and re-executed (outputs
	// vanished) counts.
	recRunResumed uint8 = 6
	// recTaskMemoized marks a task seeded as completed from the memo
	// cache (Options.Memoize): same payload as recTaskCompleted — id
	// plus output names and sizes — and treated identically on resume,
	// so a crashed memoized run never re-probes its way into
	// re-invoking a task this run already accounted for.
	recTaskMemoized uint8 = 7
)

// journalRunHeaderVersion is bumped on incompatible payload changes.
const journalRunHeaderVersion = 1

// runHeader is the decoded recRunHeader payload.
type runHeader struct {
	Version     int
	Fingerprint wfformat.Hash
	OptionsHash uint64
	Scheduling  Scheduling
	TaskCount   int
	Workflow    string
	StartedUnix int64
}

func (h *runHeader) encode() []byte {
	b := make([]byte, 0, 64+len(h.Workflow))
	b = append(b, byte(h.Version))
	b = append(b, h.Fingerprint[:]...)
	b = binary.AppendUvarint(b, h.OptionsHash)
	b = append(b, byte(h.Scheduling))
	b = binary.AppendUvarint(b, uint64(h.TaskCount))
	b = appendString(b, h.Workflow)
	b = binary.AppendVarint(b, h.StartedUnix)
	return b
}

func decodeRunHeader(data []byte) (*runHeader, error) {
	d := payload{b: data}
	h := &runHeader{Version: int(d.byte())}
	if h.Version != journalRunHeaderVersion {
		return nil, fmt.Errorf("wfm: journal header version %d (want %d)", h.Version, journalRunHeaderVersion)
	}
	copy(h.Fingerprint[:], d.bytes(len(h.Fingerprint)))
	h.OptionsHash = d.uvarint()
	h.Scheduling = Scheduling(d.byte())
	h.TaskCount = int(d.uvarint())
	h.Workflow = d.string()
	h.StartedUnix = d.varint()
	if d.err != nil {
		return nil, fmt.Errorf("wfm: corrupt journal header: %w", d.err)
	}
	return h, nil
}

// optionsHash digests the options that change a run's semantics — a
// resumed run with a different hash still executes (resume validates
// content via the fingerprint, not configuration), but the mismatch is
// surfaced as a Result warning.
func (o *Options) optionsHash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "s=%d c=%t k=%t r=%d t=%g i=%g p=%g m=%t",
		o.Scheduling, o.ContinueOnError, o.SkipStageInputs,
		o.Retries, o.TaskTimeout, o.InputWait, o.PhaseDelay,
		o.Memoize != nil)
	return h.Sum64()
}

// taskOutput is one recorded output product of a completed task.
type taskOutput struct {
	Name string
	Size int64
}

// The task-lifecycle encoders append into a caller-owned buffer — the
// run's hot path reuses runJournal.scratch so journaling a task costs
// zero heap allocations in steady state.

func appendTaskStarted(b []byte, id int32, attempt int) []byte {
	b = binary.AppendUvarint(b, uint64(id))
	b = binary.AppendUvarint(b, uint64(attempt))
	return b
}

// appendTaskCompleted encodes the completion straight off the task's
// declared output files, skipping any intermediate slice.
func appendTaskCompleted(b []byte, id int32, t *wfformat.Task) []byte {
	b = binary.AppendUvarint(b, uint64(id))
	n := 0
	for _, f := range t.Files {
		if f.Link == wfformat.LinkOutput {
			n++
		}
	}
	b = binary.AppendUvarint(b, uint64(n))
	for _, f := range t.Files {
		if f.Link == wfformat.LinkOutput {
			b = appendString(b, f.Name)
			b = binary.AppendUvarint(b, uint64(f.SizeInBytes))
		}
	}
	return b
}

func appendTaskFailed(b []byte, id int32, skipped bool, msg string) []byte {
	b = binary.AppendUvarint(b, uint64(id))
	var flags byte
	if skipped {
		flags |= 1
	}
	b = append(b, flags)
	b = appendString(b, msg)
	return b
}

func encodeRunEnd(status byte, failed int) []byte {
	b := make([]byte, 0, 12)
	b = append(b, status)
	b = binary.AppendUvarint(b, uint64(failed))
	return b
}

func encodeRunResumed(recorded, verified, reexecuted int) []byte {
	b := make([]byte, 0, 16)
	b = binary.AppendUvarint(b, uint64(recorded))
	b = binary.AppendUvarint(b, uint64(verified))
	b = binary.AppendUvarint(b, uint64(reexecuted))
	return b
}

// Run-end status bytes.
const (
	runEndOK        byte = 0
	runEndFailed    byte = 1
	runEndCancelled byte = 2
)

// payload is a cursor over a record payload with sticky-error decoding.
type payload struct {
	b   []byte
	err error
}

func (d *payload) fail() {
	if d.err == nil {
		d.err = errors.New("truncated payload")
	}
}

func (d *payload) byte() byte {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *payload) bytes(n int) []byte {
	if d.err != nil || len(d.b) < n {
		d.fail()
		return make([]byte, n)
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *payload) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *payload) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *payload) string() string {
	n := d.uvarint()
	if d.err != nil || uint64(len(d.b)) < n {
		d.fail()
		return ""
	}
	v := string(d.b[:n])
	d.b = d.b[n:]
	return v
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// runJournal is the manager's nil-safe writer over the journal: a nil
// receiver makes every call a no-op, so the hot path carries no
// journal-enabled branches (the same pattern as Monitor). Append errors
// are sticky and surfaced once at run end as a Result warning — a sick
// disk must not take down an otherwise healthy workflow, but the
// operator has to learn the journal is no longer protecting the run.
type runJournal struct {
	j       *journal.Journal
	mu      sync.Mutex
	failed  error
	started []int32 // execution attempts per id so far, replay-seeded
	scratch []byte  // encode buffer, reused under mu — Append copies it
}

func newRunJournal(j *journal.Journal, n int, priorStarted []int32) *runJournal {
	if j == nil {
		return nil
	}
	started := make([]int32, n)
	copy(started, priorStarted)
	return &runJournal{j: j, started: started, scratch: make([]byte, 0, 256)}
}

func (rj *runJournal) append(kind uint8, data []byte) {
	rj.mu.Lock()
	rj.appendLocked(kind, data)
	rj.mu.Unlock()
}

func (rj *runJournal) appendLocked(kind uint8, data []byte) {
	if err := rj.j.Append(kind, data); err != nil && rj.failed == nil {
		rj.failed = err
	}
}

// taskStarted records one execution attempt and returns its 1-based
// attempt number (counted across process lifetimes via the replay seed).
func (rj *runJournal) taskStarted(id int32) int {
	if rj == nil {
		return 0
	}
	rj.mu.Lock()
	rj.started[id]++
	attempt := int(rj.started[id])
	rj.scratch = appendTaskStarted(rj.scratch[:0], id, attempt)
	rj.appendLocked(recTaskStarted, rj.scratch)
	rj.mu.Unlock()
	return attempt
}

func (rj *runJournal) taskCompleted(id int32, t *wfformat.Task) {
	if rj == nil {
		return
	}
	rj.mu.Lock()
	rj.scratch = appendTaskCompleted(rj.scratch[:0], id, t)
	rj.appendLocked(recTaskCompleted, rj.scratch)
	rj.mu.Unlock()
}

// taskMemoized records a cache-hit task; the payload matches
// recTaskCompleted so recovery treats both as completions.
func (rj *runJournal) taskMemoized(id int32, t *wfformat.Task) {
	if rj == nil {
		return
	}
	rj.mu.Lock()
	rj.scratch = appendTaskCompleted(rj.scratch[:0], id, t)
	rj.appendLocked(recTaskMemoized, rj.scratch)
	rj.mu.Unlock()
}

func (rj *runJournal) taskFailed(id int32, skipped bool, err error) {
	if rj == nil {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	rj.mu.Lock()
	rj.scratch = appendTaskFailed(rj.scratch[:0], id, skipped, msg)
	rj.appendLocked(recTaskFailed, rj.scratch)
	rj.mu.Unlock()
}

func (rj *runJournal) runEnd(status byte, failed int) {
	if rj == nil {
		return
	}
	rj.append(recRunEnd, encodeRunEnd(status, failed))
	rj.j.Sync()
}

// takeError reports the first append failure, if any.
func (rj *runJournal) takeError() error {
	if rj == nil {
		return nil
	}
	rj.mu.Lock()
	defer rj.mu.Unlock()
	return rj.failed
}

// ResumeReport summarizes what a resumed run recovered from its journal.
type ResumeReport struct {
	// RecordedCompleted is how many tasks the journal recorded as
	// completed before the crash.
	RecordedCompleted int
	// SkippedInvocations is how many of those were verified (outputs
	// still on the shared drive) and therefore never re-invoked.
	SkippedInvocations int
	// Reexecuted is how many recorded-completed tasks had to run again
	// because their outputs had vanished from the drive.
	Reexecuted int
	// PriorAttempts is the total number of execution attempts the
	// journal recorded before this resume.
	PriorAttempts int
	// Torn reports that the journal ended in a torn record — the
	// signature of a writer killed mid-append. Harmless: the torn tail
	// was discarded and its tasks simply re-run.
	Torn bool
}

// recovery is the decoded resume state handed to the run loops.
type recovery struct {
	header   *runHeader
	doneIDs  []int32 // verified-completed ids, ascending
	doneSet  []bool  // by id
	attempts []int32 // prior started counts by id
	outs     map[int32][]taskOutput
	report   ResumeReport
}

// runState threads journaling, resume, and memoization context through
// the run loop. A fresh, unjournaled, unmemoized run carries an
// all-nil state; every accessor tolerates that.
type runState struct {
	rj        *runJournal
	rec       *recovery
	memo      *memoState
	health    *healthState
	completed atomic.Int64
	afterDone func(int)
}

// recovered reports whether id was restored from the journal and must
// not be re-invoked.
func (st *runState) recoveredID(id int32) bool {
	return st.rec != nil && st.rec.doneSet[id]
}

// memoizedID reports whether id was seeded from the memo cache.
func (st *runState) memoizedID(id int32) bool {
	return st.memo != nil && st.memo.hitSet[id]
}

// seededID reports whether id starts the run already completed — by
// journal recovery or by a memo-cache hit — and must not be invoked.
func (st *runState) seededID(id int32) bool {
	return st.recoveredID(id) || st.memoizedID(id)
}

// seedIDs merges the recovered and memoized ID sets, ascending. The
// sets are disjoint (the memo probe skips journal-recovered tasks) and
// each is already sorted, so this is a plain two-way merge.
func (st *runState) seedIDs() []int32 {
	var a, b []int32
	if st.rec != nil {
		a = st.rec.doneIDs
	}
	if st.memo != nil {
		b = st.memo.hitIDs
	}
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]int32, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			out = append(out, a[0])
			a = a[1:]
		} else {
			out = append(out, b[0])
			b = b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

// taskDone is the post-completion bookkeeping for every invoked task:
// journal the outcome, feed the memo cache, then fire the
// crash-injection / progress hook with the cumulative in-process
// completion count.
func (st *runState) taskDone(id int32, p *invocationPlan, tr *TaskResult) {
	st.health.taskFinished(p.tasks[id], tr)
	if tr.Err != nil {
		st.rj.taskFailed(id, false, tr.Err)
		return
	}
	st.rj.taskCompleted(id, p.tasks[id])
	st.memo.put(id, p.tasks[id])
	n := int(st.completed.Add(1))
	if st.afterDone != nil {
		st.afterDone(n)
	}
}

// recoverRun decodes journal records into a recovery: header validation
// (fingerprint must match the workflow being resumed), the completed
// set, and prior attempt counts. Output verification against the drive
// happens separately so this stays pure decoding.
func (m *Manager) recoverRun(w *wfformat.Workflow, n int, recs []journal.Record, torn bool) (*recovery, error) {
	var header *runHeader
	rec := &recovery{
		doneSet:  make([]bool, n),
		attempts: make([]int32, n),
	}
	rec.report.Torn = torn
	completedOuts := make(map[int32][]taskOutput)
	for _, r := range recs {
		switch r.Kind {
		case recRunHeader:
			h, err := decodeRunHeader(r.Data)
			if err != nil {
				return nil, err
			}
			if header == nil {
				header = h
			}
		case recTaskStarted:
			d := payload{b: r.Data}
			id := int32(d.uvarint())
			if d.err == nil && int(id) < n {
				rec.attempts[id]++
				rec.report.PriorAttempts++
			}
		case recTaskCompleted, recTaskMemoized:
			// A memoized task is a completion from recovery's point of
			// view: its products are on the drive (verified below like any
			// other) and it must not be re-invoked on resume.
			d := payload{b: r.Data}
			id := int32(d.uvarint())
			cnt := int(d.uvarint())
			if d.err != nil || int(id) >= n {
				continue
			}
			outs := make([]taskOutput, 0, cnt)
			for i := 0; i < cnt && d.err == nil; i++ {
				outs = append(outs, taskOutput{Name: d.string(), Size: int64(d.uvarint())})
			}
			if d.err == nil {
				rec.doneSet[id] = true
				completedOuts[id] = outs
			}
		case recTaskFailed, recRunEnd, recRunResumed, journal.KindSnapshot:
			// Failures re-run on resume; end/resume markers and snapshots
			// carry no per-task state.
		}
	}
	if header == nil {
		return nil, errors.New("wfm: journal has records but no run header; not a wfm journal")
	}
	if fp := wfformat.Fingerprint(w); fp != header.Fingerprint {
		return nil, fmt.Errorf("wfm: journal fingerprint %s does not match workflow %s (%s); refusing to resume",
			header.Fingerprint, w.Name, fp)
	}
	if header.TaskCount != n {
		return nil, fmt.Errorf("wfm: journal task count %d does not match workflow (%d)", header.TaskCount, n)
	}
	rec.header = header
	for id := int32(0); int(id) < n; id++ {
		if rec.doneSet[id] {
			rec.report.RecordedCompleted++
			rec.doneIDs = append(rec.doneIDs, id)
		}
	}
	rec.outs = completedOuts
	return rec, nil
}

// verifyOutputs checks that every recorded-completed task's outputs are
// still on the shared drive; tasks whose products vanished are dropped
// from the done-set so they re-run.
func (m *Manager) verifyOutputs(rec *recovery) {
	kept := rec.doneIDs[:0]
	for _, id := range rec.doneIDs {
		ok := true
		for _, o := range rec.outs[id] {
			if !m.opts.Drive.Exists(o.Name) {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, id)
			rec.report.SkippedInvocations++
		} else {
			rec.doneSet[id] = false
			rec.report.Reexecuted++
		}
	}
	rec.doneIDs = kept
}

// JournalEvent is one decoded record in a run journal, as surfaced by
// ReadRunJournal for cmd/analyze.
type JournalEvent struct {
	Kind    string
	TaskID  int32 // -1 for run-level events
	Attempt int
	Outputs []taskOutput
	Skipped bool
	Message string
}

// JournalSummary is the analysis view of a run journal.
type JournalSummary struct {
	Header *runHeaderView
	// EventCounts maps record kind name to occurrences.
	EventCounts map[string]int
	// Attempts maps task ID to execution attempts recorded.
	Attempts map[int32]int
	// CompletedTasks is the number of distinct tasks with a completion
	// record; FailedTasks likewise for terminal failures.
	CompletedTasks int
	FailedTasks    int
	SkippedTasks   int
	// CompletedIDs lists the distinct completed task IDs, ascending.
	// Task IDs are the compiled CSR's interned indices — sorted task
	// name order — so verification harnesses can map them back to
	// names without the original plan in hand.
	CompletedIDs []int32
	// MemoizedTasks is the number of distinct tasks seeded from the
	// memo cache instead of executing; MemoSkippedBytes sums the output
	// sizes those hits did not have to recompute. MemoReexecuted counts
	// memoized tasks that nonetheless have an execution attempt in the
	// same journal — a cache hit later invalidated (outputs vanished
	// between crash and resume) and re-run.
	MemoizedTasks    int
	MemoSkippedBytes int64
	MemoReexecuted   int
	// Resumes lists resume markers in order.
	Resumes []ResumeMarker
	// Ends lists run-end markers in order.
	Ends []RunEndMarker
	// Torn reports the journal ended in a torn record.
	Torn bool
	// Segments is the number of segment files on disk.
	Segments int
}

// runHeaderView is the exported face of the run header.
type runHeaderView struct {
	Workflow    string
	Fingerprint string
	Scheduling  string
	TaskCount   int
	OptionsHash uint64
	StartedUnix int64
}

// ResumeMarker is one recRunResumed record.
type ResumeMarker struct {
	Recorded, Verified, Reexecuted int
}

// RunEndMarker is one recRunEnd record.
type RunEndMarker struct {
	Status string
	Failed int
}

func kindName(k uint8) string {
	switch k {
	case journal.KindSnapshot:
		return "snapshot"
	case recRunHeader:
		return "run-header"
	case recTaskStarted:
		return "task-started"
	case recTaskCompleted:
		return "task-completed"
	case recTaskFailed:
		return "task-failed"
	case recRunEnd:
		return "run-end"
	case recRunResumed:
		return "run-resumed"
	case recTaskMemoized:
		return "task-memoized"
	}
	return fmt.Sprintf("kind-%d", k)
}

func statusName(s byte) string {
	switch s {
	case runEndOK:
		return "ok"
	case runEndFailed:
		return "failed"
	case runEndCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("status-%d", s)
}

// ReadRunJournal replays the journal at path (a directory or a single
// segment file) and decodes the manager's record taxonomy into an
// analysis summary. Tolerant of torn tails and foreign records.
func ReadRunJournal(path string) (*JournalSummary, error) {
	rep, err := journal.Read(path)
	if err != nil {
		return nil, err
	}
	s := &JournalSummary{
		EventCounts: make(map[string]int),
		Attempts:    make(map[int32]int),
		Torn:        rep.Torn,
		Segments:    len(rep.Segments),
	}
	completed := make(map[int32]bool)
	failed := make(map[int32]bool)
	memoized := make(map[int32]bool)
	for _, r := range rep.Records {
		s.EventCounts[kindName(r.Kind)]++
		d := payload{b: r.Data}
		switch r.Kind {
		case recRunHeader:
			h, err := decodeRunHeader(r.Data)
			if err != nil || s.Header != nil {
				continue
			}
			s.Header = &runHeaderView{
				Workflow:    h.Workflow,
				Fingerprint: h.Fingerprint.String(),
				Scheduling:  h.Scheduling.String(),
				TaskCount:   h.TaskCount,
				OptionsHash: h.OptionsHash,
				StartedUnix: h.StartedUnix,
			}
		case recTaskStarted:
			id := int32(d.uvarint())
			if d.err == nil {
				s.Attempts[id]++
			}
		case recTaskCompleted:
			id := int32(d.uvarint())
			if d.err == nil {
				completed[id] = true
			}
		case recTaskMemoized:
			id := int32(d.uvarint())
			cnt := int(d.uvarint())
			var bytes int64
			for i := 0; i < cnt && d.err == nil; i++ {
				d.string()
				bytes += int64(d.uvarint())
			}
			if d.err == nil {
				memoized[id] = true
				completed[id] = true
				s.MemoSkippedBytes += bytes
			}
		case recTaskFailed:
			id := int32(d.uvarint())
			flags := d.byte()
			if d.err == nil {
				failed[id] = true
				if flags&1 != 0 {
					s.SkippedTasks++
				}
			}
		case recRunEnd:
			status := d.byte()
			n := int(d.uvarint())
			if d.err == nil {
				s.Ends = append(s.Ends, RunEndMarker{Status: statusName(status), Failed: n})
			}
		case recRunResumed:
			m := ResumeMarker{
				Recorded:   int(d.uvarint()),
				Verified:   int(d.uvarint()),
				Reexecuted: int(d.uvarint()),
			}
			if d.err == nil {
				s.Resumes = append(s.Resumes, m)
			}
		}
	}
	s.CompletedTasks = len(completed)
	s.CompletedIDs = make([]int32, 0, len(completed))
	for id := range completed {
		s.CompletedIDs = append(s.CompletedIDs, id)
	}
	slices.Sort(s.CompletedIDs)
	s.FailedTasks = len(failed)
	s.MemoizedTasks = len(memoized)
	for id := range memoized {
		if s.Attempts[id] > 0 {
			s.MemoReexecuted++
		}
	}
	return s, nil
}

// MaxAttemptTasks returns the task IDs with the highest recorded attempt
// count, sorted, plus that count — the "which task kept crashing us"
// question.
func (s *JournalSummary) MaxAttemptTasks() ([]int32, int) {
	max := 0
	for _, n := range s.Attempts {
		if n > max {
			max = n
		}
	}
	if max <= 0 {
		return nil, 0
	}
	var ids []int32
	for id, n := range s.Attempts {
		if n == max {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, k int) bool { return ids[i] < ids[k] })
	return ids, max
}

package wfm

import (
	"sync"

	"wfserverless/internal/dag"
	"wfserverless/internal/memo"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfformat"
)

// MemoReport summarizes what the memo cache contributed to a run.
type MemoReport struct {
	// Hits is how many tasks were seeded as completed from the cache
	// (fingerprint matched and every recorded output verified on the
	// drive) and therefore never invoked.
	Hits int
	// Misses is how many tasks had no usable cache entry — unknown
	// fingerprint, or a hit whose outputs had vanished or diverged on
	// the drive (those re-run exactly like Resume's re-executed tasks).
	Misses int
	// SkippedOutputBytes sums the recorded output sizes of the hits:
	// the data volume this run did not have to recompute and republish.
	SkippedOutputBytes int64
	// CacheEntries is the cache's distinct-fingerprint count after the
	// run populated it.
	CacheEntries int
	// CacheRepaired reports that opening the cache found corruption and
	// truncated it back to a valid prefix (CacheDroppedBytes long lost);
	// a fully-foreign file degrades to a cold cache.
	CacheRepaired     bool
	CacheDroppedBytes int64
}

// memoState is one run's view of the memo cache: the per-task
// fingerprints resolved bottom-up over the CSR at prepare time, the
// probe's hit set, and the completion-side recorder. The probe runs
// once before any dispatch; the drain afterwards costs hit tasks
// nothing and executed tasks one manifest append each.
type memoState struct {
	cache   *memo.Cache
	drive   sharedfs.Drive
	hasher  sharedfs.Hasher // content-address view of drive; nil if unsupported
	fps     []wfformat.Hash // by task ID
	hitSet  []bool          // by task ID
	hitIDs  []int32         // ascending
	misses  int
	skipped int64 // bytes of recorded outputs across hits

	mu      sync.Mutex
	scratch []memo.Output // manifest build buffer, reused under mu
}

// probeMemo resolves every task's fingerprint and probes the cache,
// marking as hits the tasks whose recorded outputs still verify on the
// shared drive. Tasks the journal already proved completed (rec) are
// the resume path's business and are skipped here.
func (m *Manager) probeMemo(csr *dag.CSR, p *invocationPlan, rec *recovery) *memoState {
	ms := &memoState{cache: m.opts.Memoize, drive: m.opts.Drive}
	ms.hasher, _ = m.opts.Drive.(sharedfs.Hasher)
	// External inputs are addressed through the drive when it already
	// holds the file (so content drift invalidates consumers) and
	// through the declared (name, size) pattern address otherwise (so a
	// fingerprint computed before staging equals one computed after —
	// probing happens before stageHeader runs).
	ext := func(name string, size int64) uint64 {
		if ms.hasher != nil {
			if h, ok := ms.hasher.ContentHash(name); ok {
				return h
			}
		}
		return sharedfs.ContentAddress(name, size)
	}
	ms.fps = wfformat.TaskFingerprints(csr, p.tasks, ext)
	ms.hitSet = make([]bool, p.len())
	for id := 0; id < p.len(); id++ {
		if rec != nil && rec.doneSet[id] {
			continue
		}
		outs, ok := ms.cache.Lookup(ms.fps[id])
		if !ok || !ms.outputsPresent(outs) {
			ms.misses++
			continue
		}
		ms.hitSet[id] = true
		ms.hitIDs = append(ms.hitIDs, int32(id))
		for _, o := range outs {
			ms.skipped += o.Size
		}
	}
	m.opts.Monitor.memoProbed(len(ms.hitIDs), ms.misses)
	return ms
}

// outputsPresent verifies a cache entry against the drive: on
// content-addressed drives each output must still carry the recorded
// content address (one metadata hash per file, the Hasher fast path);
// otherwise existence is the best check available. A failed
// verification demotes the hit to a miss — the producer re-runs, just
// like Resume re-runs tasks whose products vanished.
func (ms *memoState) outputsPresent(outs []memo.Output) bool {
	for _, o := range outs {
		if ms.hasher != nil {
			h, ok := ms.hasher.ContentHash(o.Name)
			if !ok || (o.Hash != 0 && h != o.Hash) {
				return false
			}
		} else if !ms.drive.Exists(o.Name) {
			return false
		}
	}
	return true
}

// put records a completed task's output manifest in the cache. Safe on
// a nil receiver (memoization off) and for concurrent workers.
func (ms *memoState) put(id int32, t *wfformat.Task) {
	if ms == nil {
		return
	}
	ms.mu.Lock()
	ms.scratch = ms.scratch[:0]
	for _, f := range t.Files {
		if f.Link != wfformat.LinkOutput {
			continue
		}
		o := memo.Output{Name: f.Name, Size: f.SizeInBytes}
		if ms.hasher != nil {
			if h, ok := ms.hasher.ContentHash(f.Name); ok {
				o.Hash = h
			}
		}
		ms.scratch = append(ms.scratch, o)
	}
	ms.cache.Put(ms.fps[id], ms.scratch) // error sticky in the cache, surfaced at run end
	ms.mu.Unlock()
}

// report renders the run-level summary.
func (ms *memoState) report() *MemoReport {
	r := &MemoReport{
		Hits:               len(ms.hitIDs),
		Misses:             ms.misses,
		SkippedOutputBytes: ms.skipped,
		CacheEntries:       ms.cache.Len(),
	}
	r.CacheDroppedBytes, r.CacheRepaired = ms.cache.Recovered()
	return r
}

// seedResults records every pre-completed task's result in one arena
// allocation. On a fully-memoized 100k-task re-run this loop IS the
// execution phase; per-task heap objects and their GC scan cost would
// dominate it.
func seedResults(p *invocationPlan, csr *dag.CSR, st *runState, seeds []int32, out map[string]*TaskResult) {
	arena := make([]TaskResult, len(seeds))
	for i, id := range seeds {
		tr := &arena[i]
		task := p.tasks[id]
		tr.Name = task.Name
		tr.Category = task.Category
		tr.Phase = int(csr.Level(id)) + 1
		if st.recoveredID(id) {
			tr.Recovered = true
			if st.rec != nil {
				tr.Attempts = int(st.rec.attempts[id])
			}
		} else {
			tr.Memoized = true
		}
		out[task.Name] = tr
	}
}

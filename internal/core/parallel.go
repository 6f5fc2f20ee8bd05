package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"allnn/internal/obs"
)

// subtreesPerWorker is the initial frontier granularity: the serial
// prefix of the traversal is expanded until at least
// Parallelism*subtreesPerWorker subtrees exist (or no further expansion
// is possible). The work-stealing scheduler splits stragglers
// dynamically, so the frontier only needs to be wide enough to give
// every worker a starting block.
const subtreesPerWorker = 4

// splitDivisor and minSplitCount parameterise the dynamic-split
// heuristic: a claimed node-owner task is re-expanded into child tasks
// instead of drained in place when its subtree holds more than
// max(total/(workers*splitDivisor), minSplitCount) points. The divisor
// keeps the largest schedulable unit at a fraction of a fair share, so a
// skewed frontier cannot leave one worker draining a giant subtree while
// the rest idle; the floor stops the scheduler from shredding small
// subtrees into tasks that cost more to steal than to run.
const (
	splitDivisor  = 8
	minSplitCount = 64
)

// runParallel is the parallel form of Algorithm 3 (ANN-DFBI). The
// children of any I_R node carry independent candidate sets and bounds
// (each child LPQ inherits its bound at creation and never reads its
// siblings), so distinct subtrees of the query index can be drained
// concurrently with zero coordination beyond stats aggregation and emit
// serialisation.
//
// The root of I_R (and as many further levels as needed) is expanded
// serially into a frontier of LPQs (and the rows of any leaf joined on
// the way) whose concatenated depth-first traversal equals the serial
// traversal exactly. The frontier seeds a
// work-stealing scheduler: each worker owns a deque of subtree tasks,
// pops locally from the tail (LIFO — depth-first order, warm caches) and
// steals from another worker's head (FIFO — the oldest, typically
// largest subtree) when its own deque runs dry. A claimed task whose
// subtree exceeds the split threshold is re-expanded into child tasks —
// exactly the expandAndPrune call the serial traversal would make, so a
// split wastes no work and preserves Stats parity by construction.
//
// Every worker keeps a private Stats, merged at the end, so counter
// totals match a serial run. Emission is either unordered (mutex-guarded
// callback, fastest) or order-preserving through an emit tree whose
// depth-first leaf order is the serial traversal order even as splits
// grow it — byte-identical to serial output.
func (e *engine) runParallel(root *lpq, workers int) error {
	totalCount := uint64(root.owner.Count)
	var tFrontier time.Time
	if e.obsOn() {
		tFrontier = time.Now()
	}
	frontier, err := e.buildFrontier(root, workers*subtreesPerWorker)
	if e.obsOn() {
		now := time.Now()
		e.tr.Complete("frontier", obs.TidMain, tFrontier, now, "subtrees", int64(len(frontier)))
		if e.tm != nil {
			e.tm.Frontier += now.Sub(tFrontier)
		}
	}
	if err != nil {
		return err
	}
	n := len(frontier)
	if n == 0 {
		return nil
	}

	threshold := totalCount / uint64(workers*splitDivisor)
	if threshold < minSplitCount {
		threshold = minSplitCount
	}

	// Per-subtree drain times feed the "engine.subtree_nanos" histogram —
	// the skew diagnostic for the decomposition — when a metrics registry
	// is attached.
	var subtreeHist *obs.Histogram
	if e.opts.Registry != nil {
		subtreeHist = e.opts.Registry.Histogram("engine.subtree_nanos", obs.LatencyBuckets())
	}
	timed := e.tr != nil || subtreeHist != nil

	s := newScheduler(workers, threshold)

	// Emission strategy shared by the workers.
	var (
		emitMu sync.Mutex // unordered mode
		tree   *emitTree  // ordered mode
	)
	var rootSlots []*emitSlot
	if e.opts.OrderedEmit {
		tree, rootSlots = newEmitTree(e.emit, n)
	}

	// Leaves joined while the frontier was built already hold their rows:
	// they fill their slot (or, unordered, go straight out) before any
	// worker starts, and only the remaining parts become tasks.
	tasks := 0
	for i, p := range frontier {
		if p.q != nil {
			tasks++
			continue
		}
		if tree != nil {
			err = tree.finish(rootSlots[i], p.rows)
		} else {
			for _, r := range p.rows {
				if err = e.emit(r); err != nil {
					break
				}
			}
		}
		if err != nil {
			return err
		}
	}
	if tasks == 0 {
		return nil
	}

	// Seed the deques: worker w starts with a contiguous block of the
	// depth-first frontier, pushed in reverse so its LIFO pops drain the
	// block in depth-first order (thieves take the block's tail first).
	s.pending.Store(int64(tasks))
	s.queued.Store(int64(tasks))
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		for i := hi - 1; i >= lo; i-- {
			if frontier[i].q == nil {
				continue
			}
			t := &wsTask{q: frontier[i].q, seq: int64(i)}
			if tree != nil {
				t.slot = rootSlots[i]
			}
			s.deques[w].push(t)
		}
	}
	s.nextSeq.Store(int64(n))

	var statsMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var wstats Stats
			wtid := obs.TidWorkerBase + int64(w)
			var wtm *Timings
			if e.tm != nil {
				wtm = &Timings{}
			}
			we := &engine{ir: e.ir, is: e.is, opts: e.opts, stats: &wstats,
				shrink: e.shrink,
				ctx:    e.ctx, cancelled: e.cancelled,
				tr: e.tr, tid: wtid, tm: wtm}
			// Ordered mode buffers each task's rows for its emit slot (a
			// split leaf owner emits too); unordered mode serialises the
			// callback.
			var buf []Result
			if tree != nil {
				we.emit = func(r Result) error {
					buf = append(buf, r)
					return nil
				}
			} else {
				we.emit = func(r Result) error {
					emitMu.Lock()
					defer emitMu.Unlock()
					return e.emit(r)
				}
			}
			if e.memoS != nil {
				we.memoS = new(nodeMemo)
			}
			var wSpan obs.Span
			if e.tr != nil {
				e.tr.SetThreadName(wtid, fmt.Sprintf("worker-%d", w))
				wSpan = e.tr.Begin("worker", wtid)
			}
			for !s.stop.Load() {
				// A cancelled context stops the claim loop too, so workers
				// cannot pick up fresh subtrees after the deadline; dfbi's
				// own polling aborts the subtree already in progress.
				if err := we.checkCancel(); err != nil {
					s.fail(err)
					break
				}
				t := s.deques[w].pop()
				if t == nil {
					var victim int
					if t, victim = s.stealFor(w); t != nil {
						we.sched.Steals++
						if e.tr != nil {
							e.tr.Instant("steal", wtid, "victim", int64(victim))
						}
					}
				}
				if t == nil {
					if s.pending.Load() == 0 {
						break
					}
					s.idleWait()
					continue
				}
				s.queued.Add(-1)

				q := t.q
				// Task LPQs were created under another goroutine's Stats;
				// re-point at this worker's private counters before
				// touching them concurrently.
				q.stats = &wstats
				buf = nil

				if !q.owner.IsObject() && uint64(q.owner.Count) > s.threshold {
					// Straggler: split instead of draining in place.
					var tSplit time.Time
					if e.tr != nil {
						tSplit = time.Now()
					}
					children, err := we.expandAndPrune(q)
					if err != nil {
						s.fail(err)
						s.retire()
						break
					}
					we.putLPQ(q)
					we.sched.Splits++
					if e.tr != nil {
						e.tr.Complete("split", wtid, tSplit, time.Now(), "children", int64(len(children)))
					}
					if len(children) == 0 {
						// A leaf owner: its rows (already emitted when
						// unordered) complete the slot.
						if tree != nil {
							if err := tree.finish(t.slot, buf); err != nil {
								s.fail(err)
							}
						}
						s.retire()
						continue
					}
					var slots []*emitSlot
					if tree != nil {
						slots = tree.split(t.slot, len(children))
					}
					base := s.nextSeq.Add(int64(len(children))) - int64(len(children))
					for i := len(children) - 1; i >= 0; i-- {
						ct := &wsTask{q: children[i], seq: base + int64(i)}
						if tree != nil {
							ct.slot = slots[i]
						}
						s.deques[w].push(ct)
					}
					// Children before retiring the parent, so pending can
					// only reach zero when the whole tree is drained.
					s.pending.Add(int64(len(children)))
					s.queued.Add(int64(len(children)))
					s.wake()
					s.retire()
					continue
				}

				var tSub time.Time
				if timed {
					tSub = time.Now()
				}
				if err := we.dfbi(q); err != nil {
					s.fail(err)
					s.retire()
					break
				}
				if timed {
					finishSubtree(e.tr, subtreeHist, wtid, t.seq, tSub)
				}
				if tree != nil {
					if err := tree.finish(t.slot, buf); err != nil {
						s.fail(err)
						s.retire()
						break
					}
				}
				we.sched.Tasks++
				s.retire()
			}
			wSpan.End()
			statsMu.Lock()
			e.stats.Add(wstats)
			e.sched.Add(we.sched)
			if wtm != nil {
				e.tm.addStages(*wtm)
			}
			statsMu.Unlock()
		}(w)
	}
	wg.Wait()
	return s.firstErr()
}

// finishSubtree records one subtree task's drain: a "subtree" span on the
// worker's lane (nesting the expand/filter/gather spans the drain
// emitted) and an observation in the subtree-duration histogram.
func finishSubtree(tr *obs.Tracer, hist *obs.Histogram, tid int64, seq int64, start time.Time) {
	end := time.Now()
	tr.Complete("subtree", tid, start, end, "subtree", seq)
	hist.Observe(float64(end.Sub(start).Nanoseconds()))
}

// frontierPart is one element of the parallel frontier: either an LPQ
// subtree still to drain, or (q == nil) the rows of a leaf of I_R that
// was joined while the frontier was built.
type frontierPart struct {
	q    *lpq
	rows []Result
}

// buildFrontier expands the query index serially, level by level, until
// the frontier holds at least target parts or no LPQ owns a node. Each
// node-owner LPQ is replaced in place by its children — or, for a leaf,
// by the rows its join produced — so the concatenation of the parts'
// depth-first outputs is exactly the serial traversal order.
func (e *engine) buildFrontier(root *lpq, target int) ([]frontierPart, error) {
	var rows []Result
	emit := e.emit
	e.emit = func(r Result) error {
		rows = append(rows, r)
		return nil
	}
	defer func() { e.emit = emit }()
	frontier := []frontierPart{{q: root}}
	for {
		if err := e.checkCancel(); err != nil {
			return nil, err
		}
		expandable := 0
		for _, p := range frontier {
			if p.q != nil && !p.q.owner.IsObject() {
				expandable++
			}
		}
		if expandable == 0 || len(frontier) >= target {
			return frontier, nil
		}
		next := make([]frontierPart, 0, len(frontier)*2)
		for _, p := range frontier {
			if p.q == nil || p.q.owner.IsObject() {
				next = append(next, p)
				continue
			}
			rows = nil
			children, err := e.expandAndPrune(p.q)
			if err != nil {
				return nil, err
			}
			e.putLPQ(p.q)
			if rows != nil {
				next = append(next, frontierPart{rows: rows})
			}
			for _, c := range children {
				next = append(next, frontierPart{q: c})
			}
		}
		frontier = next
	}
}

// wsTask is one unit of schedulable work: an independent LPQ subtree,
// its slot in the ordered-emit tree (nil in unordered mode), and a
// sequence number for tracing.
type wsTask struct {
	q    *lpq
	slot *emitSlot
	seq  int64
}

// wsDeque is one worker's task queue. The owner pushes and pops at the
// tail (LIFO); thieves take from the head (FIFO). A mutex suffices: all
// operations are O(1), the owner only locks when it actually has or
// wants work, and idle workers are kept off the locks by the scheduler's
// queued counter.
type wsDeque struct {
	mu    sync.Mutex
	head  int
	tasks []*wsTask
}

func (d *wsDeque) push(t *wsTask) {
	d.mu.Lock()
	d.tasks = append(d.tasks, t)
	d.mu.Unlock()
}

func (d *wsDeque) pop() *wsTask {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.tasks)
	if d.head >= n {
		return nil
	}
	t := d.tasks[n-1]
	d.tasks[n-1] = nil
	d.tasks = d.tasks[:n-1]
	if d.head >= n-1 {
		d.tasks = d.tasks[:0]
		d.head = 0
	}
	return t
}

func (d *wsDeque) steal() *wsTask {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head >= len(d.tasks) {
		return nil
	}
	t := d.tasks[d.head]
	d.tasks[d.head] = nil
	d.head++
	return t
}

// scheduler coordinates the worker deques: it tracks how many tasks are
// outstanding (pending) and how many of those sit unclaimed in deques
// (queued), parks workers that find every deque empty, and records the
// first error. The invariant that makes the idle wait safe: a task is
// retired only after any children it spawned were pushed, so
// pending > 0 with queued == 0 implies some worker is still executing —
// and that worker will either push (wake) or retire (wake on zero).
type scheduler struct {
	threshold uint64
	deques    []wsDeque
	pending   atomic.Int64
	queued    atomic.Int64
	nextSeq   atomic.Int64
	stop      atomic.Bool

	mu   sync.Mutex // guards cond
	cond *sync.Cond

	errMu sync.Mutex
	err   error
}

func newScheduler(workers int, threshold uint64) *scheduler {
	s := &scheduler{threshold: threshold, deques: make([]wsDeque, workers)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// stealFor scans the other deques (round-robin from w+1) and takes the
// head of the first non-empty one, returning the task and the victim.
func (s *scheduler) stealFor(w int) (*wsTask, int) {
	n := len(s.deques)
	for i := 1; i < n; i++ {
		v := (w + i) % n
		if t := s.deques[v].steal(); t != nil {
			return t, v
		}
	}
	return nil, -1
}

// idleWait parks the worker until work appears, everything is drained,
// or the run stops. Re-checks under the lock, so a wake between the
// caller's empty scan and the park is never lost.
func (s *scheduler) idleWait() {
	s.mu.Lock()
	for s.queued.Load() <= 0 && s.pending.Load() > 0 && !s.stop.Load() {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// wake signals parked workers after tasks were pushed.
func (s *scheduler) wake() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// retire marks one claimed task finished; the last retire wakes everyone
// so idle workers can observe completion and exit.
func (s *scheduler) retire() {
	if s.pending.Add(-1) == 0 {
		s.wake()
	}
}

// fail records the first error, stops the run and wakes parked workers.
func (s *scheduler) fail(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
	s.stop.Store(true)
	s.wake()
}

func (s *scheduler) firstErr() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

// emitSlot is one node of the ordered-emit tree: a leaf holds the
// buffered results of one subtree task; an internal node was a task that
// split, and completes when its children do. The depth-first order of
// the tree's leaves is the serial traversal order at every moment —
// the frontier is depth-first ordered, and a split replaces a leaf by
// its depth-first-ordered children in place.
type emitSlot struct {
	parent   *emitSlot
	children []*emitSlot
	next     int // first not-yet-flushed child
	done     bool
	buf      []Result
}

// emitTree releases buffered subtree results in depth-first leaf order:
// a cursor walks the tree flushing every consecutive completed leaf and
// stops at the first pending one. Workers stream results with no
// dedicated emitter goroutine, the user callback is never invoked
// concurrently, and — unlike a flat sequencer — the order survives
// dynamic splits, which simply deepen the tree under the split slot.
type emitTree struct {
	mu   sync.Mutex
	emit func(Result) error
	root *emitSlot
	err  error
}

// newEmitTree builds the tree over the n frontier subtrees and returns
// their leaf slots.
func newEmitTree(emit func(Result) error, n int) (*emitTree, []*emitSlot) {
	t := &emitTree{emit: emit, root: &emitSlot{}}
	slots := make([]*emitSlot, n)
	for i := range slots {
		slots[i] = &emitSlot{parent: t.root}
	}
	t.root.children = slots
	return t, slots
}

// split turns leaf s into an internal node with n fresh leaves. Called
// by the worker that owns s, before any finish on it; n >= 1.
func (t *emitTree) split(s *emitSlot, n int) []*emitSlot {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make([]*emitSlot, n)
	for i := range kids {
		kids[i] = &emitSlot{parent: s}
	}
	s.children = kids
	return kids
}

// finish records a completed leaf's buffered results and flushes every
// leaf the cursor can now pass. It returns the first emit error (also on
// later calls, so every worker learns to stop).
func (t *emitTree) finish(s *emitSlot, buf []Result) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.buf = buf
	s.done = true
	t.advance()
	return t.err
}

// advance walks the depth-first cursor from the root, flushing completed
// leaves until it hits a pending one. O(depth) re-descent per call;
// splits are rare and the tree shallow, so simplicity wins over a cached
// cursor.
func (t *emitTree) advance() {
	cur := t.root
	for t.err == nil {
		if cur.children != nil {
			if cur.next < len(cur.children) {
				cur = cur.children[cur.next]
				continue
			}
			// Internal node exhausted: pop to its parent.
			if cur.parent == nil {
				return
			}
			cur = cur.parent
			cur.next++
			continue
		}
		if !cur.done {
			return // cursor blocked on a pending subtree
		}
		for _, r := range cur.buf {
			if t.err = t.emit(r); t.err != nil {
				return
			}
		}
		cur.buf = nil
		if cur.parent == nil {
			return
		}
		cur = cur.parent
		cur.next++
	}
}

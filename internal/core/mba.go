package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/obs"
	"allnn/internal/pq"
	"allnn/internal/storage"
)

// Run executes an ANN/AkNN query: for every point in the query index ir,
// it finds the Options.K nearest points in the target index is, calling
// emit once per query object. Results stream in index traversal order.
//
// Run is the paper's Algorithm 2 (MBA): it seeds the root LPQ, then
// processes the LPQ queue depth-first (ANN-DFBI, Algorithm 3) with
// bi-directional node expansion and the Three-Stage pruning of
// Algorithm 4. Over MBRQT indexes this is MBA; over R*-trees, RBA.
func Run(ir, is index.Tree, opts Options, emit func(Result) error) (Stats, error) {
	return RunContext(context.Background(), ir, is, opts, emit)
}

// armCancel wires a context to the polling-based cancellation machinery
// shared by every traversal: a watcher goroutine flips the returned
// atomic flag when ctx is cancelled, and the engine's loops poll it. The
// flag is nil when ctx can never be cancelled (context.Background()), so
// the paper-configuration hot path pays only a nil check. The returned
// disarm function stops the watcher; call it (usually via defer) when
// the traversal ends. A context that is already cancelled surfaces as an
// immediate error with a nil disarm-safe pair.
func armCancel(ctx context.Context) (cancelled *atomic.Bool, disarm func(), err error) {
	disarm = func() {}
	done := ctx.Done()
	if done == nil {
		return nil, disarm, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, disarm, err
	}
	cancelled = new(atomic.Bool)
	stopWatch := make(chan struct{})
	disarm = func() { close(stopWatch) }
	go func() {
		select {
		case <-done:
			cancelled.Store(true)
		case <-stopWatch:
		}
	}()
	return cancelled, disarm, nil
}

// RunContext is Run with cancellation: when ctx is cancelled (or its
// deadline passes), the traversal — serial or parallel — stops at the
// next loop boundary, releases its resources (no buffer-pool pin survives
// an abort) and returns ctx.Err(). A context that can never be cancelled
// (context.Background()) costs nothing: the cancellation machinery — one
// watcher goroutine flipping a shared atomic flag the engine polls — is
// only armed when ctx.Done() is non-nil.
func RunContext(ctx context.Context, ir, is index.Tree, opts Options, emit func(Result) error) (stats Stats, err error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return stats, err
	}
	cancelled, disarm, err := armCancel(ctx)
	if err != nil {
		return stats, err
	}
	defer disarm()
	if ir.Dim() != is.Dim() {
		return stats, fmt.Errorf("core: index dimensionality mismatch: %d vs %d", ir.Dim(), is.Dim())
	}

	// Observability. tMark advances across the setup/seed/traverse
	// boundaries; the "query" span (and Wall) closes on every exit path.
	tr := opts.Tracer
	obsOn := tr != nil || opts.timings != nil
	var tQuery, tMark time.Time
	if obsOn {
		tQuery = time.Now()
		tMark = tQuery
		defer func() {
			now := time.Now()
			tr.Complete("query", obs.TidMain, tQuery, now, "results", int64(stats.Results))
			if opts.timings != nil {
				opts.timings.Wall += now.Sub(tQuery)
			}
		}()
	}

	caches := setupNodeCaches(ir, is, opts.NodeCacheBytes, opts.Parallelism)
	cachesBefore := cacheSnapshot(caches)
	defer func() { addCacheDelta(&stats, cachesBefore, cacheSnapshot(caches)) }()
	if tr != nil {
		tr.SetThreadName(obs.TidMain, "engine")
		tr.SetThreadName(obs.TidPool, "bufferpool")
		tr.SetThreadName(obs.TidCache, "nodecache")
		for _, p := range distinctPools(ir, is) {
			p.SetTracer(tr)
			defer p.SetTracer(nil)
		}
		for _, c := range caches {
			c.SetTracer(tr)
			defer c.SetTracer(nil)
		}
	}
	rootR, err := ir.Root()
	if err != nil {
		return stats, err
	}
	rootS, err := is.Root()
	if err != nil {
		return stats, err
	}
	if obsOn {
		now := time.Now()
		tr.Complete("setup", obs.TidMain, tMark, now, "", 0)
		if opts.timings != nil {
			opts.timings.Setup += now.Sub(tMark)
		}
		tMark = now
	}
	if rootR.Count == 0 {
		return stats, nil // nothing to query
	}
	e := &engine{ir: ir, is: is, opts: opts, emit: emit, stats: &stats,
		shrink: opts.approxShrink(),
		ctx:    ctx, cancelled: cancelled,
		tr: tr, tid: obs.TidMain, tm: opts.timings}
	if nc, ok := is.(index.NodeCacher); ok && nc.NodeCacheRef() != nil {
		// The shared decoded-node cache is attached: front it with a
		// small engine-local lookaside so the hottest I_S nodes skip the
		// shard locks entirely (each parallel worker gets its own).
		e.memoS = new(nodeMemo)
	}
	if opts.Sched != nil {
		defer func() { opts.Sched.Add(e.sched) }()
	}
	if rootS.Count == 0 {
		// No targets: every query object gets an empty neighbor list.
		return stats, e.emitEmpty(&rootR)
	}

	root := e.getLPQ(&rootR, infinity, opts.effectiveK(), opts.KBound, !opts.VolatileBounds)
	mind, maxd := e.distances(&rootR, &rootS)
	root.enqueue(lpqItem{e: &rootS, mind: mind, maxd: maxd})
	if obsOn {
		now := time.Now()
		tr.Complete("seed", obs.TidMain, tMark, now, "", 0)
		if opts.timings != nil {
			opts.timings.Seed += now.Sub(tMark)
		}
		tMark = now
	}

	if opts.Parallelism > 1 {
		err = e.runParallel(root, opts.Parallelism)
	} else {
		err = e.dfbi(root)
	}
	if obsOn {
		now := time.Now()
		tr.Complete("traverse", obs.TidMain, tMark, now, "results", int64(stats.Results))
		if opts.timings != nil {
			opts.timings.Traverse += now.Sub(tMark)
		}
	}
	return stats, err
}

// Collect runs the query and materialises all results.
func Collect(ir, is index.Tree, opts Options) ([]Result, Stats, error) {
	return CollectContext(context.Background(), ir, is, opts)
}

// CollectContext is Collect with cancellation (see RunContext). On early
// cancellation the results gathered so far are returned alongside
// ctx.Err().
func CollectContext(ctx context.Context, ir, is index.Tree, opts Options) ([]Result, Stats, error) {
	var out []Result
	stats, err := RunContext(ctx, ir, is, opts, func(r Result) error {
		out = append(out, r)
		return nil
	})
	return out, stats, err
}

type engine struct {
	ir, is index.Tree
	opts   Options
	emit   func(Result) error
	stats  *Stats

	// shrink is Options.approxShrink() — the squared-space multiplier
	// applied to admission-side pruning bounds in approximate mode.
	// Exactly 1 for exact queries, where every approximate branch below
	// is gated behind a `shrink != 1` test and the hot path is unchanged.
	shrink float64

	// Cancellation: cancelled is the shared flag the RunContext watcher
	// goroutine flips (nil when the context can never be cancelled, so the
	// paper-configuration hot path stays free of it); ctx supplies the
	// error to surface. Parallel workers share both.
	ctx       context.Context
	cancelled *atomic.Bool

	// Observability: tr records stage spans on lane tid (parallel workers
	// get lanes of their own); tm accumulates the stage wall-time
	// breakdown. Both nil in the default configuration, where the only
	// overhead is the obsOn nil check per expandAndPrune call.
	tr  *obs.Tracer
	tid int64
	tm  *Timings

	// Per-engine scratch reused across expandAndPrune calls. The engine
	// is single-threaded (each parallel worker builds its own), and two
	// leaf joins or Gather Stages never nest, so one set suffices.
	join       leafJoin
	gatherBest *pq.KBest[*index.Entry]
	gatherTop  []pq.Item[*index.Entry]

	// lpqFree is the engine-private LPQ freelist (see getLPQ); memoS is
	// the engine-local decoded-node lookaside for I_S (nil unless the
	// target index has a node cache attached); sched accumulates the
	// scheduler and batch-kernel counters, merged into Options.Sched at
	// the end of the run.
	lpqFree []*lpq
	memoS   *nodeMemo
	sched   SchedStats
}

// memoSlots sizes the engine-local decoded-node lookaside: a
// direct-mapped table of the last expansion per page-id slot. Power of
// two; 128 slots cover the I_S working set of a leaf join (the same few
// nodes are re-expanded once per owning LPQ) at ~4 KB per worker.
const memoSlots = 128

// nodeMemo is a direct-mapped lookaside over the shared decoded-node
// cache. The shared cache is sharded and lock-guarded; during the leaf
// join every worker hammers the same few hot pages, so a private table
// turns those lookups into two loads with no coherence traffic. Entries
// are immutable shared slices (the Tree.Expand contract), and a memo
// lives only for one run, so staleness cannot arise (index mutation never
// runs concurrently with queries).
type nodeMemo struct {
	ids  [memoSlots]storage.PageID
	ok   [memoSlots]bool
	vals [memoSlots][]index.Entry
}

func (m *nodeMemo) get(id storage.PageID) ([]index.Entry, bool) {
	s := uint32(id) & (memoSlots - 1)
	if m.ok[s] && m.ids[s] == id {
		return m.vals[s], true
	}
	return nil, false
}

func (m *nodeMemo) put(id storage.PageID, v []index.Entry) {
	s := uint32(id) & (memoSlots - 1)
	m.ids[s], m.vals[s], m.ok[s] = id, v, true
}

// expandS expands a candidate entry of I_S through the engine-local
// lookaside. A memo hit is counted as a node-cache hit so that the
// hits+misses total stays a pure function of the traversal — the
// invariant the serial/parallel parity tests rely on; the memo only
// changes which tier serves the lookup. Callers count NodesExpandedS
// themselves (the memo does not change expansion counts either).
func (e *engine) expandS(ent *index.Entry) ([]index.Entry, error) {
	if e.memoS != nil {
		if v, ok := e.memoS.get(ent.Child); ok {
			e.stats.NodeCacheHits++
			return v, nil
		}
	}
	v, err := e.is.Expand(ent)
	if err == nil && e.memoS != nil {
		e.memoS.put(ent.Child, v)
	}
	return v, err
}

// obsOn reports whether the engine records spans or stage timings.
func (e *engine) obsOn() bool { return e.tr != nil || e.tm != nil }

// checkCancel returns the context's error once the watcher has flipped
// the shared flag, nil otherwise. One atomic load when a cancellable
// context is attached, one nil check when not — cheap enough for every
// traversal loop to poll.
func (e *engine) checkCancel() error {
	if e.cancelled != nil && e.cancelled.Load() {
		return e.ctx.Err()
	}
	return nil
}

// dfbi is Algorithm 3 (ANN-DFBI): expand the input LPQ, then recurse into
// each child LPQ in FIFO order. The input LPQ is fully drained by the
// expansion and returns to the pool before the recursion (children never
// reference their parent queue).
func (e *engine) dfbi(q *lpq) error {
	if err := e.checkCancel(); err != nil {
		return err
	}
	children, err := e.expandAndPrune(q)
	if err != nil {
		return err
	}
	e.putLPQ(q)
	for _, c := range children {
		if err := e.dfbi(c); err != nil {
			return err
		}
	}
	return nil
}

// distances computes the squared (MIND, MAXD) pair between an owner entry
// and a candidate entry — the Distances() call of Algorithm 4.
func (e *engine) distances(owner, cand *index.Entry) (mind, maxd float64) {
	mind = e.minDist(owner, cand)
	if owner.IsObject() && cand.IsObject() {
		return mind, mind
	}
	return mind, e.maxDist(owner, cand)
}

// minDist is the squared MINMINDIST between an owner and a candidate
// entry. It is the cheap half of Distances(); the engine evaluates it
// first and computes the pruning metric only for survivors.
func (e *engine) minDist(owner, cand *index.Entry) float64 {
	e.stats.DistanceCalcs++
	return e.minDistUncounted(owner, cand)
}

func (e *engine) minDistUncounted(owner, cand *index.Entry) float64 {
	if owner.IsObject() {
		if cand.IsObject() {
			return geom.DistSq(owner.Point, cand.Point)
		}
		return geom.MinDistPointRectSq(owner.Point, cand.MBR)
	}
	if cand.IsObject() {
		return geom.MinDistPointRectSq(cand.Point, owner.MBR)
	}
	return geom.MinDistSq(owner.MBR, cand.MBR)
}

// maxDist is the squared pruning upper bound (MAXD) between an owner and
// a candidate entry. Not valid for object/object pairs (there the exact
// distance serves as both bounds).
func (e *engine) maxDist(owner, cand *index.Entry) float64 {
	if !owner.IsObject() && cand.IsObject() {
		// For a candidate point, every owner point is guaranteed this
		// neighbor within the maximum distance; both metrics coincide.
		return geom.MaxDistPointRectSq(cand.Point, owner.MBR)
	}
	return e.opts.Metric.BoundSq(owner.MBR, cand.MBR)
}

// probe offers a candidate to an LPQ: the cheap MIND test runs first and
// the metric is evaluated only if the candidate survives it. The
// object/object case — the bulk of all probes during the leaf-level join
// — uses an early-abort distance computation against the bound.
func (e *engine) probe(c *lpq, cand *index.Entry) {
	e.stats.DistanceCalcs++
	bound := c.admitBound()
	if c.owner.Kind == index.ObjectEntry && cand.Kind == index.ObjectEntry {
		d, ok := geom.DistSqWithin(c.owner.Point, cand.Point, bound)
		if !ok {
			e.stats.PrunedOnProbe++
			return
		}
		c.enqueueChecked(lpqItem{e: cand, mind: d, maxd: d})
		return
	}
	mind := e.minDistUncounted(c.owner, cand)
	if mind > bound {
		e.stats.PrunedOnProbe++
		return
	}
	c.enqueueChecked(lpqItem{e: cand, mind: mind, maxd: e.maxDist(c.owner, cand)})
}

// expandAndPrune is Algorithm 4. For an object owner (PerObjectGather
// only) it runs the Gather Stage, emitting that owner's result. For a
// leaf of I_R it runs the leaf join, emitting the leaf's rows, and
// returns no children. For any other node owner it runs the Expand
// Stage, distributing the queued candidates over freshly created child
// LPQs (Filter Stage pruning happens inside lpq.enqueue).
//
// With observability enabled (engine.obsOn) the call is bracketed by an
// "expand" span with a nested "filter" span over the candidate drain
// (plus a nested "gather" span over a leaf's emission, or a lone
// "gather" span for an object owner); the stage clocks in Timings
// attribute the drain to Filter, emission to Gather and the remainder to
// Expand, so the three stage totals are disjoint.
func (e *engine) expandAndPrune(q *lpq) ([]*lpq, error) {
	if q.owner.IsObject() {
		if !e.obsOn() {
			return nil, e.gather(q)
		}
		start := time.Now()
		err := e.gather(q)
		end := time.Now()
		e.tr.Complete("gather", e.tid, start, end, "k", int64(q.k))
		if e.tm != nil {
			e.tm.Gather += end.Sub(start)
		}
		return nil, err
	}

	obsOn := e.obsOn()
	var tExpand time.Time
	if obsOn {
		tExpand = time.Now()
	}
	children, err := e.ir.Expand(q.owner)
	if err != nil {
		return nil, err
	}
	e.stats.NodesExpandedR++
	if !e.opts.PerObjectGather && len(children) > 0 && children[0].Kind == index.ObjectEntry {
		// The owner is a leaf of I_R: its children are the query objects
		// themselves. Join the candidates all the way down to object level
		// here, where each I_S node is expanded once and shared by every
		// query object — rather than giving each object an LPQ whose
		// Gather Stage re-expands the same nodes (index heights need not
		// align across branches, so candidates may still be several
		// levels up). The leaf's rows are emitted before this returns.
		return nil, e.joinLeaf(q, children, tExpand)
	}
	lpqcs := make([]*lpq, len(children))
	for i := range children {
		inherited := q.bound()
		if s := e.opts.BoundSeedSq; s != nil && children[i].Kind == index.ObjectEntry {
			if id := int(children[i].Object); id >= 0 && id < len(s) && s[id] < inherited {
				inherited = s[id]
			}
		}
		lpqcs[i] = e.getLPQ(&children[i], inherited, q.k, q.kb, q.monotone)
	}

	var tDrain time.Time
	if obsOn {
		tDrain = time.Now()
	}
	if err := e.drainToChildren(q, lpqcs); err != nil {
		return nil, err
	}
	var tDrainEnd time.Time
	if obsOn {
		tDrainEnd = time.Now()
	}

	out := lpqcs[:0]
	for _, c := range lpqcs {
		if c.len() > 0 {
			out = append(out, c)
		} else if c.owner.Count > 0 {
			// A child owner with data but no candidates can only happen
			// when the target index is empty below every probed entry —
			// impossible while S is non-empty. Guard anyway.
			return nil, fmt.Errorf("core: child LPQ starved for owner %v", c.owner.MBR)
		} else {
			e.putLPQ(c)
		}
	}
	if obsOn {
		end := time.Now()
		e.tr.Complete("filter", e.tid, tDrain, tDrainEnd, "kept", int64(len(out)))
		e.tr.Complete("expand", e.tid, tExpand, end, "children", int64(len(children)))
		if e.tm != nil {
			drain := tDrainEnd.Sub(tDrain)
			e.tm.Filter += drain
			e.tm.Expand += end.Sub(tExpand) - drain
		}
	}
	return out, nil
}

// discardRest accounts a terminal cut: the already-dequeued item it plus
// everything still queued in q is discarded wholesale. Node entries count
// as pruned subtrees, object entries as pruned entries. Purely a
// counting helper — the caller stops consuming the queue either way.
func (e *engine) discardRest(q *lpq, it lpqItem) {
	var nodes, objs uint64
	if it.e.IsObject() {
		objs++
	} else {
		nodes++
	}
	for _, rem := range q.items[q.head:] {
		if rem.e.IsObject() {
			objs++
		} else {
			nodes++
		}
	}
	e.stats.PrunedSubtrees += nodes
	e.stats.PrunedEntries += objs
}

// drainToChildren is the Expand Stage for an internal owner: the parent
// queue's candidates are dequeued best-first, expanded one level in I_S
// when they are nodes, and probed against every child LPQ.
func (e *engine) drainToChildren(q *lpq, lpqcs []*lpq) error {
	for {
		if err := e.checkCancel(); err != nil {
			return err
		}
		// Entries whose MIND exceeds every child's bound are useless; the
		// queue is MIND-ordered, so the first such entry ends the loop.
		maxBound := math.Inf(-1)
		for _, c := range lpqcs {
			if b := c.admitBound(); b > maxBound {
				maxBound = b
			}
		}
		it, ok := q.dequeue()
		if !ok {
			return nil
		}
		if it.mind > maxBound {
			if e.shrink != 1 {
				// Attribute the cut to approximation only when the exact
				// bounds would have kept going (computed on this cold path
				// only, never on the exact configuration).
				exact := math.Inf(-1)
				for _, c := range lpqcs {
					if b := c.slackBound(); b > exact {
						exact = b
					}
				}
				if it.mind <= exact {
					e.stats.LPQEarlyTerms++
				}
			}
			e.discardRest(q, it)
			return nil
		}
		if it.e.IsObject() {
			// An object cannot be expanded further; probe it directly.
			for _, c := range lpqcs {
				e.probe(c, it.e)
			}
			continue
		}
		cands, err := e.expandS(it.e)
		if err != nil {
			return err
		}
		e.stats.NodesExpandedS++
		for ci := range cands {
			cand := &cands[ci]
			for _, c := range lpqcs {
				e.probe(c, cand)
			}
		}
	}
}

// gather is the Gather Stage of the PerObjectGather ablation: the owner
// is a data object r, and its LPQ is drained best-first until the k
// nearest objects are known.
func (e *engine) gather(q *lpq) error {
	r := q.owner
	best := e.kBest(q.k)
	for {
		if err := e.checkCancel(); err != nil {
			return err
		}
		it, ok := q.dequeue()
		if !ok {
			break
		}
		if best.Full() {
			// MIND-ordered queue: nothing closer than it.mind remains. In
			// approximate mode the cut-off is Worst x shrink — stopping once
			// the best possible improvement is within (1+eps) of the current
			// k-th best (the Arya et al. rule). Guarded on Full(), so the
			// early stop can never leave fewer than k results.
			w := best.Worst()
			if q.shrink != 1 {
				w *= q.shrink
			}
			if it.mind >= w {
				if q.shrink != 1 && it.mind < best.Worst() {
					e.stats.LPQEarlyTerms++
				}
				e.discardRest(q, it)
				break
			}
		}
		if it.e.IsObject() {
			best.Add(it.mind, it.e) // mind == exact squared distance
			continue
		}
		cands, err := e.expandS(it.e)
		if err != nil {
			return err
		}
		e.stats.NodesExpandedS++
		for ci := range cands {
			cand := &cands[ci]
			mind := e.minDist(r, cand)
			if best.Full() {
				w := best.Worst()
				if q.shrink != 1 {
					w *= q.shrink
				}
				if mind >= w {
					e.stats.PrunedOnProbe++
					continue
				}
			}
			if mind > q.admitBound() {
				e.stats.PrunedOnProbe++
				continue
			}
			var maxd float64
			if cand.IsObject() {
				maxd = mind
			} else {
				maxd = e.maxDist(r, cand)
			}
			q.enqueueChecked(lpqItem{e: cand, mind: mind, maxd: maxd})
		}
	}

	e.gatherTop = best.AppendItems(e.gatherTop[:0])
	return e.emitRow(r, e.gatherTop)
}

// kBest returns the engine's reusable k-best collector, emptied.
func (e *engine) kBest(k int) *pq.KBest[*index.Entry] {
	if e.gatherBest == nil || e.gatherBest.K() != k {
		e.gatherBest = pq.NewKBest[*index.Entry](k)
	} else {
		e.gatherBest.Reset()
	}
	return e.gatherBest
}

// emitRow emits query object r's result row from its k best (squared
// distances, ascending): r itself is skipped once under ExcludeSelf, and
// the row is capped at Options.K neighbors.
func (e *engine) emitRow(r *index.Entry, items []pq.Item[*index.Entry]) error {
	neighbors := make([]Neighbor, 0, e.opts.K)
	selfSeen := false
	for _, it := range items {
		if e.opts.ExcludeSelf && !selfSeen && it.Value.Object == r.Object {
			selfSeen = true
			continue
		}
		if len(neighbors) == e.opts.K {
			break
		}
		neighbors = append(neighbors, Neighbor{
			Object: it.Value.Object,
			Point:  it.Value.Point,
			Dist:   math.Sqrt(it.Key),
		})
	}
	e.stats.Results++
	return e.emit(Result{Object: r.Object, Point: r.Point, Neighbors: neighbors})
}

// emitEmpty walks the query index emitting empty results (used when the
// target index holds no points).
func (e *engine) emitEmpty(entry *index.Entry) error {
	if err := e.checkCancel(); err != nil {
		return err
	}
	if entry.IsObject() {
		e.stats.Results++
		return e.emit(Result{Object: entry.Object, Point: entry.Point})
	}
	if entry.Count == 0 {
		return nil
	}
	children, err := e.ir.Expand(entry)
	if err != nil {
		return err
	}
	for i := range children {
		if err := e.emitEmpty(&children[i]); err != nil {
			return err
		}
	}
	return nil
}

package core

import (
	"fmt"
	"math"
	"time"

	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/pq"
)

// leafJoin is the engine's scratch state for the leaf-level object join:
// one leaf of I_R, whose children are the query objects themselves,
// joined against every candidate its LPQ inherited from I_S. One instance
// lives per engine (one per parallel worker) and is reset for each leaf,
// so the join performs no steady-state allocations beyond growth of the
// retained buffers.
//
// The paper gives every query object an LPQ of its own and drains it in a
// per-object Gather Stage. Here the leaf's owners instead keep their k
// best in flat per-owner arrays (k = Options.effectiveK()): slot x of
// owner i holds a squared distance and a reference into cands, sorted
// ascending with equal distances in arrival order — the order the LPQ's
// insertion left them in. The bound of each owner follows the object
// LPQ's rules exactly (inherited floor, KBound, VolatileBounds, boundSlack
// and the approximate shrink), so every admission decision, counter and
// emitted row is the one the LPQ-per-object engine produced.
//
// Candidate objects are committed in tiles: add/probeAll gather
// prefilter survivors into contiguous arrays, and flush pushes each tile
// through geom.DistSqBlock and commits the results in candidate order
// against the live bounds. During a leaf join bounds only tighten, so a
// snapshot bound taken at gather or kernel time is always >= the live
// bound at commit time — a kernel early-out therefore implies a live
// reject too, and every committed distance is the full sum, accumulated
// in the same dimension order as a scalar loop, hence bit-identical to
// probing candidates one at a time.
type leafJoin struct {
	dim     int
	leafMBR geom.Rect
	// owners are the leaf's query objects (the shared slice Expand
	// returned). Their coordinates are packed row-major into flat, so the
	// kernel runs over contiguous memory.
	owners []index.Entry
	flat   []float64

	// Per-owner k best: dist/ref hold k slots per owner, count[i] of them
	// filled. ref indexes cands, the leaf's admitted candidates, so the
	// slots are pointer-free and an insertion shifts plain words.
	k     int
	dist  []float64
	ref   []int32
	count []int32
	cands []*index.Entry

	// Per-owner bound state, mirroring lpq: inherited is the floor passed
	// down from the leaf's LPQ (Lemma 3.2) or BoundSeedSq, bound the live
	// value (lpq.cached), worst the largest distance admitted so far (read
	// by KBoundMaxAll only). admit caches admitBound for the kernel and
	// the commit tests.
	inherited []float64
	bound     []float64
	worst     []float64
	admit     []float64
	kb        KBound
	monotone  bool
	shrink    float64

	// ties lists entries pushed past an owner's k-th slot that were still
	// inside its slackened bound. Under KBoundKth such an entry lies
	// within boundSlack of the k-th distance, so the list is empty unless
	// the data has ties. Whether it survives depends on the owner's final
	// bound: an object LPQ would have kept it queued (and its Gather Stage
	// discarded it, counted in PrunedEntries) or truncated it (counted in
	// PrunedByFilter). finishCounts settles the list when the leaf ends.
	tieOwner []int32
	tieDist  []float64

	// maxOwnerBound caches max(admit); maxOwnerIdx is its argmax, so a
	// tightening of any other owner skips the O(owners) rescan.
	maxOwnerBound float64
	maxOwnerIdx   int
	work          pq.Heap[*index.Entry]
	stats         *Stats
	sched         *SchedStats

	// Batch gather buffers: candidates surviving the snapshot prefilter,
	// their packed coordinates, and their precomputed leaf-MBR distances
	// (re-checked against the live bound at commit).
	candEnts []*index.Entry
	candFlat []float64
	candPre  []float64
	block    []float64
}

// resized returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset points the scratch at a new leaf: q is the leaf's LPQ, owners its
// query objects. Each owner inherits q's bound, lowered to its
// BoundSeedSq entry when seeds holds a smaller one, and q's k, KBound,
// monotonicity and shrink.
func (j *leafJoin) reset(dim int, q *lpq, owners []index.Entry, seeds []float64, stats *Stats, sched *SchedStats) {
	m := len(owners)
	j.dim = dim
	j.leafMBR = q.owner.MBR
	j.owners = owners
	j.k, j.kb, j.monotone, j.shrink = q.k, q.kb, q.monotone, q.shrink
	j.dist = resized(j.dist, m*q.k)
	j.ref = resized(j.ref, m*q.k)
	j.count = resized(j.count, m)
	j.inherited = resized(j.inherited, m)
	j.bound = resized(j.bound, m)
	j.worst = resized(j.worst, m)
	j.admit = resized(j.admit, m)
	clear(j.count)
	j.flat = j.flat[:0]
	parent := q.bound()
	for i := range owners {
		b := parent
		if seeds != nil {
			if id := int(owners[i].Object); id >= 0 && id < len(seeds) && seeds[id] < b {
				b = seeds[id]
			}
		}
		j.inherited[i], j.bound[i], j.worst[i] = b, b, math.Inf(-1)
		j.admit[i] = j.admitBound(i)
		j.flat = append(j.flat, owners[i].Point...)
	}
	j.refreshMaxOwnerBound()
	j.work.Reset()
	j.stats = stats
	j.sched = sched
	j.clearBatch()
}

// finish drops the references held by the scratch so evicted cache
// slices are not pinned between leaves.
func (j *leafJoin) finish() {
	j.owners = nil
	j.leafMBR = geom.Rect{}
	clear(j.cands)
	j.cands = j.cands[:0]
	j.tieOwner = j.tieOwner[:0]
	j.tieDist = j.tieDist[:0]
	j.work.Reset()
	j.stats = nil
	j.sched = nil
	j.clearBatch()
}

func (j *leafJoin) clearBatch() {
	clear(j.candEnts)
	j.candEnts = j.candEnts[:0]
	j.candFlat = j.candFlat[:0]
	j.candPre = j.candPre[:0]
}

// slackBound and admitBound are lpq.slackBound and lpq.admitBound for
// owner i: the shrink applies only once the owner holds k entries, so an
// owner can always collect enough candidates for k results.
func (j *leafJoin) slackBound(i int) float64 { return withSlack(j.bound[i]) }

func (j *leafJoin) admitBound(i int) float64 {
	b := j.slackBound(i)
	if j.shrink != 1 && int(j.count[i]) >= j.k {
		b *= j.shrink
	}
	return b
}

// top returns owner i's filled slots: distances ascending, equal
// distances in arrival order.
func (j *leafJoin) top(i int) (dist []float64, ref []int32) {
	lo := i * j.k
	hi := lo + int(j.count[i])
	return j.dist[lo:hi], j.ref[lo:hi]
}

// commit admits candidate cands[r] at squared distance d into owner i —
// what lpq.enqueueChecked followed by the Filter Stage did to an object
// LPQ. The entry is inserted after every equal distance (the LPQ's FIFO
// tie order); an entry pushed past the k-th slot is never emitted, so
// only its fate is recorded (see ties).
func (j *leafJoin) commit(i int, d float64, r int32) {
	j.stats.Enqueued++
	k := j.k
	n := int(j.count[i])
	ds := j.dist[i*k : i*k+k]
	rs := j.ref[i*k : i*k+k]
	pos := n
	for pos > 0 && ds[pos-1] > d {
		pos--
	}
	full := n == k
	over := d // the entry pushed past the k-th slot when full
	if pos < k {
		last := n
		if full {
			over = ds[k-1]
			last = k - 1
		} else {
			n++
			j.count[i] = int32(n)
		}
		for x := last; x > pos; x-- { // k is small: cheaper than two memmoves
			ds[x], rs[x] = ds[x-1], rs[x-1]
		}
		ds[pos], rs[pos] = d, r
	}

	// Bound maintenance: lpq.enqueueChecked and recomputeBound, specialised
	// to object entries (MIND == MAXD == d) and an enqueue-only phase.
	b := j.bound[i]
	if k == 1 || j.kb == KBoundKth {
		// The k-th smallest distance so far, once there are k.
		if n == k && ds[k-1] < b {
			b = ds[k-1]
		}
	} else {
		// KBoundMaxAll: the LPQ recomputes when a member undercuts its
		// bound, taking the largest member once it holds k. Nothing is
		// ever truncated under this rule, so worst is the largest member.
		if d > j.worst[i] {
			j.worst[i] = d
		}
		if d < b {
			f := j.inherited[i]
			if n == k && j.worst[i] < f {
				f = j.worst[i]
			}
			if f < b || !j.monotone {
				b = f
			}
		}
	}
	j.bound[i] = b

	if full {
		switch {
		case over > withSlack(b):
			j.stats.PrunedByFilter++
		case k > 1 && j.kb == KBoundMaxAll:
			// The bound never drops below a member, so the entry stays
			// queued until the Gather Stage discards it.
			j.stats.PrunedEntries++
		default:
			j.tieOwner = append(j.tieOwner, int32(i))
			j.tieDist = append(j.tieDist, over)
		}
	}
	j.tighten(i, j.admitBound(i))
}

// finishCounts settles the entries that were pushed past an owner's k-th
// slot inside its bound at the time: the object LPQ truncated those its
// final bound excludes and kept the rest for its Gather Stage to
// discard. Under KBoundKth the bound only tightens, so the final bound
// alone decides.
func (j *leafJoin) finishCounts() {
	for x, i := range j.tieOwner {
		if j.tieDist[x] > j.slackBound(int(i)) {
			j.stats.PrunedByFilter++
		} else {
			j.stats.PrunedEntries++
		}
	}
}

func (j *leafJoin) refreshMaxOwnerBound() {
	j.maxOwnerBound = math.Inf(-1)
	j.maxOwnerIdx = -1
	for i, b := range j.admit {
		if b > j.maxOwnerBound {
			j.maxOwnerBound = b
			j.maxOwnerIdx = i
		}
	}
}

// tighten records owner i's new admission bound after a commit. Bounds
// never grow during a leaf join (bar the slack-sized creep VolatileBounds
// allows under KBoundMaxAll, which the cached max has always ignored), so
// the cached max only needs a rescan when the argmax owner itself
// tightened.
func (j *leafJoin) tighten(i int, b float64) {
	j.admit[i] = b
	if i == j.maxOwnerIdx {
		j.refreshMaxOwnerBound()
	}
}

// add runs the snapshot prefilter on one candidate and gathers survivors
// into the batch buffers, flushing a full tile through the kernel. The
// prefilter bound may be stale by up to one tile (looser than live), so a
// reject here is always also a live reject; survivors are re-checked
// against the live bound when their tile commits.
func (j *leafJoin) add(cand *index.Entry) {
	cp := cand.Point
	j.stats.DistanceCalcs++
	pre := geom.MinDistPointRectSq(cp, j.leafMBR)
	if pre > j.maxOwnerBound {
		j.stats.PrunedOnProbe += uint64(len(j.owners))
		return
	}
	j.gatherCand(cand, cp, pre)
}

func (j *leafJoin) gatherCand(cand *index.Entry, cp geom.Point, pre float64) {
	j.candEnts = append(j.candEnts, cand)
	j.candFlat = append(j.candFlat, cp...)
	j.candPre = append(j.candPre, pre)
	if len(j.candEnts) >= geom.BlockCandTile {
		j.flush()
	}
}

// flush pushes the gathered candidate tile through the blocked distance
// kernel and commits the results in candidate order. Owner bounds used as
// kernel early-out limits are a snapshot taken here; the commit loop
// re-reads the live bounds, which by the tightening-only argument above
// can only prune more — and a pair the kernel aborted stored a partial
// sum already above its snapshot limit, hence above the live one too.
func (j *leafJoin) flush() {
	n := len(j.candEnts)
	if n == 0 {
		return
	}
	m := len(j.owners)
	need := n * m
	if cap(j.block) < need {
		j.block = make([]float64, need)
	}
	blk := j.block[:need]
	earlyOuts := geom.DistSqBlock(j.flat, m, j.candFlat, n, j.dim, j.admit, blk)
	if j.sched != nil {
		j.sched.KernelBlocks++
		j.sched.KernelPairs += uint64(need)
		j.sched.KernelEarlyOuts += uint64(earlyOuts)
	}
	for c := 0; c < n; c++ {
		// Re-run the prefilter against the now-live max bound: identical
		// to a one-candidate-at-a-time decision for this candidate.
		if j.candPre[c] > j.maxOwnerBound {
			j.stats.PrunedOnProbe += uint64(m)
			continue
		}
		row := blk[c*m : c*m+m]
		admit := j.admit[:len(row)]
		ref := int32(-1)
		admitted := 0
		for i, d := range row {
			// A commit changes only owner i's bound, so the rest of the
			// row reads the same bounds it would have read first.
			if d > admit[i] {
				continue
			}
			if ref < 0 {
				ref = int32(len(j.cands))
				j.cands = append(j.cands, j.candEnts[c])
			}
			j.commit(i, d, ref)
			admitted++
		}
		j.stats.DistanceCalcs += uint64(m)
		j.stats.PrunedOnProbe += uint64(m - admitted)
	}
	j.clearBatch()
}

// probeAll offers every candidate of a fully expanded leaf node through
// the batch path. Candidates are read by index over the shared slice; an
// entry pointer is materialised only for prefilter survivors.
func (j *leafJoin) probeAll(cands []index.Entry) {
	m := uint64(len(j.owners))
	for ci := range cands {
		cp := cands[ci].Point
		j.stats.DistanceCalcs++
		pre := geom.MinDistPointRectSq(cp, j.leafMBR)
		if pre > j.maxOwnerBound {
			j.stats.PrunedOnProbe += m
			continue
		}
		j.gatherCand(&cands[ci], cp, pre)
	}
	j.flush()
}

// joinLeaf runs the leaf-level join for a leaf owner q of I_R whose
// children, owners, are query objects, then emits one row per owner in
// child order. The candidates of q are drained to object level — each
// I_S node expanded once (best-first by MIND to the leaf) and shared by
// every owner — and nodes whose MIND exceeds every owner's bound are
// discarded along with everything farther. tExpand is when q's
// expansion began (zero unless the engine records stage clocks).
func (e *engine) joinLeaf(q *lpq, owners []index.Entry, tExpand time.Time) error {
	obsOn := e.obsOn()
	var tDrain time.Time
	if obsOn {
		tDrain = time.Now()
	}
	// Each owner's k best stand in for the paper's object LPQ and are
	// counted as one.
	e.stats.LPQsCreated += uint64(len(owners))
	j := &e.join
	j.reset(e.ir.Dim(), q, owners, e.opts.BoundSeedSq, e.stats, &e.sched)
	defer j.finish()
	if err := e.drainLeaf(q, j); err != nil {
		return err
	}
	j.finishCounts()
	var tDrainEnd time.Time
	if obsOn {
		tDrainEnd = time.Now()
	}
	if err := e.emitLeafRows(j); err != nil {
		return err
	}
	if obsOn {
		end := time.Now()
		e.tr.Complete("filter", e.tid, tDrain, tDrainEnd, "kept", int64(len(owners)))
		e.tr.Complete("gather", e.tid, tDrainEnd, end, "rows", int64(len(owners)))
		e.tr.Complete("expand", e.tid, tExpand, end, "children", int64(len(owners)))
		if e.tm != nil {
			drain, gather := tDrainEnd.Sub(tDrain), end.Sub(tDrainEnd)
			e.tm.Filter += drain
			e.tm.Gather += gather
			e.tm.Expand += end.Sub(tExpand) - drain - gather
		}
	}
	return nil
}

// drainLeaf distributes q's candidates over the leaf's owners, expanding
// candidate nodes through the work heap until only objects remain.
func (e *engine) drainLeaf(q *lpq, j *leafJoin) error {
	for {
		it, ok := q.dequeue()
		if !ok {
			break
		}
		if it.e.Kind == index.ObjectEntry {
			j.add(it.e)
		} else {
			j.work.Push(it.mind, it.e)
		}
	}
	// Every bound-dependent decision below (the heap cut-off and the
	// node-push pruning) must see bounds that reflect all earlier
	// commits, so the gathered tile is flushed before each work-heap pop.
	j.flush()
	for j.work.Len() > 0 {
		if err := e.checkCancel(); err != nil {
			return err
		}
		item, _ := j.work.Pop()
		maxBound := j.maxOwnerBound
		if item.Key > maxBound {
			if e.shrink != 1 {
				// admit holds shrunk admission bounds; the cut is
				// approx-attributable when the exact bounds disagree.
				exact := math.Inf(-1)
				for i := range j.owners {
					if b := j.slackBound(i); b > exact {
						exact = b
					}
				}
				if item.Key <= exact {
					e.stats.LPQEarlyTerms++
				}
			}
			e.stats.PrunedSubtrees += 1 + uint64(j.work.Len())
			break
		}
		cands, err := e.expandS(item.Value)
		if err != nil {
			return err
		}
		e.stats.NodesExpandedS++
		allObjects := true
		for ci := range cands {
			if cands[ci].Kind != index.ObjectEntry {
				allObjects = false
				break
			}
		}
		if allObjects {
			j.probeAll(cands)
			continue
		}
		for ci := range cands {
			cand := &cands[ci]
			if cand.Kind == index.ObjectEntry {
				j.add(cand)
			} else {
				e.stats.DistanceCalcs++
				mind := e.minDistUncounted(q.owner, cand)
				if mind <= maxBound {
					j.work.Push(mind, cand)
				} else {
					e.stats.PrunedOnProbe++
				}
			}
		}
		j.flush()
	}
	return nil
}

// emitLeafRows is the Gather Stage of a whole leaf: each owner's k best,
// already exact and sorted, become its result row.
func (e *engine) emitLeafRows(j *leafJoin) error {
	for i := range j.owners {
		owner := &j.owners[i]
		ds, rs := j.top(i)
		if len(ds) == 0 {
			// Impossible while S is non-empty: every owner inherits a
			// bound some candidate below it satisfies.
			return fmt.Errorf("core: query object %d received no candidates", owner.Object)
		}
		items := e.gatherTop[:0]
		tied := false
		for x := 1; x < len(ds); x++ {
			if ds[x] == ds[x-1] {
				tied = true
				break
			}
		}
		if tied {
			// The Gather Stage emitted through a pq.KBest, whose order
			// among equal distances is its heap's, not arrival order.
			// Replay it so tied neighbors keep their established order.
			best := e.kBest(j.k)
			for x := range ds {
				best.Add(ds[x], j.cands[rs[x]])
			}
			items = best.AppendItems(items)
		} else {
			for x := range ds {
				items = append(items, pq.Item[*index.Entry]{Key: ds[x], Value: j.cands[rs[x]]})
			}
		}
		e.gatherTop = items
		if err := e.emitRow(owner, items); err != nil {
			return err
		}
	}
	return nil
}

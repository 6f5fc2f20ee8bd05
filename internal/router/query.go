package router

import (
	"context"
	"math"
	"sort"
	"sync"

	"allnn/ann"
	"allnn/ann/client"
	"allnn/internal/geom"
	"allnn/internal/server"
	"allnn/internal/wire"
)

// --- kNN (point and batch) --------------------------------------------------
//
// Routed kNN is two-phase, after the paper's bound structure:
//
//  1. The shard owning the query point's curve key answers first; its
//     k-th neighbor distance is an upper bound on the true k-th
//     distance. Before any shard answers, the NXNDIST seed already
//     bounds the radius: every shard MBR guarantees one point within
//     NXNDIST(q, MBR) of q (Lemma 3.1), so the k-th smallest NXNDIST
//     across shards bounds the k-th neighbor distance.
//  2. Only the shards whose MINDIST(q, MBR) does not exceed the bound
//     are contacted; the rest are pruned. Gathered candidates merge by
//     (distance, global id).
//
// The NXNDIST seed is geometric: it holds whether or not the shard's
// backend is reachable, because the shard's points exist either way —
// so in strict mode (where the answer always covers the full dataset,
// or fails) it is always safe. A degraded reply covers only the live
// shards' points, and a bound derived from a dead shard's MBR could
// wrongly prune a live shard, so degraded gathers seed with +Inf.

// knnAcc accumulates one query's candidates, kept sorted by
// (distance, global id) so the k-th distance bound and the final top-k
// fall out directly.
type knnAcc struct {
	mu    sync.Mutex
	k     int
	seed  float64
	cands []wire.Neighbor
}

func newKNNAcc(k int, seed float64) *knnAcc { return &knnAcc{k: k, seed: seed} }

// add merges translated neighbors from one shard.
func (a *knnAcc) add(nbs []wire.Neighbor) {
	a.mu.Lock()
	a.cands = append(a.cands, nbs...)
	sortNeighbors(a.cands)
	if len(a.cands) > a.k {
		a.cands = a.cands[:a.k]
	}
	a.mu.Unlock()
}

// bound returns the current pruning radius: the k-th candidate
// distance once k candidates are gathered, never above the seed.
func (a *knnAcc) bound() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.seed
	if len(a.cands) >= a.k && a.cands[a.k-1].Dist < b {
		b = a.cands[a.k-1].Dist
	}
	return b
}

// top returns the final top-k (already sorted and trimmed).
func (a *knnAcc) top() []wire.Neighbor {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cands
}

// sortNeighbors orders by ascending distance, ties by ascending global
// id — the canonical merged order.
func sortNeighbors(nbs []wire.Neighbor) {
	sort.SliceStable(nbs, func(i, j int) bool {
		if nbs[i].Dist != nbs[j].Dist {
			return nbs[i].Dist < nbs[j].Dist
		}
		return nbs[i].ID < nbs[j].ID
	})
}

// translate converts one shard's local-id neighbors to global ids.
func translate(s *shard, nbs []ann.Neighbor) []wire.Neighbor {
	out := make([]wire.Neighbor, len(nbs))
	for i, n := range nbs {
		out[i] = wire.Neighbor{ID: n.ID + s.idBase, Dist: n.Dist, Point: n.Point}
	}
	return out
}

// nxnSeed returns the k-th smallest NXNDIST(q, shard MBR) across
// shards — the pre-contact bound on the k-th neighbor distance — or
// +Inf when fewer than k shards exist.
func nxnSeed(ds *dataset, q geom.Point, k int) float64 {
	dists := make([]float64, 0, len(ds.shards))
	for _, s := range ds.shards {
		if s.count == 0 {
			continue
		}
		dists = append(dists, geom.NXNDist(geom.PointRect(q), s.mbr))
	}
	if len(dists) < k {
		return math.Inf(1)
	}
	sort.Float64s(dists)
	return dists[k-1]
}

// routedBatch answers a batch of kNN probes with grouped two-phase
// scatter: one BatchKNN per owner shard, then one BatchKNN per
// fan-out shard carrying every query that could not prune it. Returns
// per-query neighbor lists (request order) and the pruned-shard count.
func (r *Router) routedBatch(ctx context.Context, g *gather, ds *dataset, queries [][]float64, k int) ([][]wire.Neighbor, int, error) {
	seedInf := r.cfg.Mode == Degraded
	accs := make([]*knnAcc, len(queries))
	owners := make([]int, len(queries))
	for qi, q := range queries {
		seed := math.Inf(1)
		if !seedInf {
			seed = nxnSeed(ds, q, k)
		}
		accs[qi] = newKNNAcc(k, seed)
		owners[qi] = ds.locate(q)
	}

	// Phase 1: group queries by owner shard, in shard order.
	phase1 := make(map[int][]int) // shard index -> query indices
	for qi := range queries {
		phase1[owners[qi]] = append(phase1[owners[qi]], qi)
	}
	runPhase := func(groups map[int][]int) error {
		shards := make([]*shard, 0, len(groups))
		for si := range ds.shards {
			if _, ok := groups[si]; ok {
				shards = append(shards, ds.shards[si])
			}
		}
		return r.scatter(ctx, g, shards, func(s *shard) error {
			si := shardIndex(ds, s)
			qidx := groups[si]
			pts := make([]ann.Point, len(qidx))
			for i, qi := range qidx {
				pts[i] = queries[qi]
			}
			var res []ann.Result
			err := s.backend.do(ctx, func(cli *client.Client) error {
				var err error
				res, err = cli.BatchKNN(ctx, s.name, pts, k)
				return err
			})
			if err != nil {
				return err
			}
			for i, rr := range res {
				accs[qidx[i]].add(translate(s, rr.Neighbors))
			}
			return nil
		})
	}
	if err := runPhase(phase1); err != nil {
		return nil, 0, err
	}

	// Phase 2: per query, fan out only to the shards whose MINDIST beats
	// the bound gathered so far.
	pruned := 0
	phase2 := make(map[int][]int)
	for qi, q := range queries {
		b := accs[qi].bound()
		for si, s := range ds.shards {
			if si == owners[qi] {
				continue
			}
			if geom.MinDistPointRect(q, s.mbr) <= b {
				phase2[si] = append(phase2[si], qi)
			} else {
				pruned++
			}
		}
	}
	if err := runPhase(phase2); err != nil {
		return nil, 0, err
	}

	out := make([][]wire.Neighbor, len(queries))
	for qi := range out {
		out[qi] = accs[qi].top()
	}
	return out, pruned, nil
}

// shardIndex finds s's position in the dataset (shard counts are small;
// linear scan beats carrying the index through the scatter plumbing).
func shardIndex(ds *dataset, s *shard) int {
	for i, t := range ds.shards {
		if t == s {
			return i
		}
	}
	return -1
}

func (r *Router) handleKNN(ctx context.Context, hdr wire.RequestHeader, req *wire.KNNReq, w *server.ResponseWriter) error {
	ds, err := r.dataset(req.Index)
	if err != nil {
		return err
	}
	if req.K < 1 {
		return server.BadRequest("k must be at least 1, got %d", req.K)
	}
	if len(req.Point) != ds.dim {
		return server.BadRequest("query point has %d dims, dataset %q has %d", len(req.Point), req.Index, ds.dim)
	}
	g := r.newGather()
	res, pruned, err := r.routedBatch(ctx, g, ds, [][]float64{req.Point}, int(req.K))
	if err != nil {
		return err
	}
	r.prune(pruned)
	return w.Send(hdr.ID, wire.KindResult, hdr.Op, &wire.KNNReply{
		Neighbors: res[0],
		Partial:   r.finishPartial(g.partial()),
	})
}

func (r *Router) handleBatchKNN(ctx context.Context, hdr wire.RequestHeader, req *wire.BatchKNNReq, w *server.ResponseWriter) error {
	ds, err := r.dataset(req.Index)
	if err != nil {
		return err
	}
	if req.K < 1 {
		return server.BadRequest("k must be at least 1, got %d", req.K)
	}
	for i, p := range req.Points {
		if len(p) != ds.dim {
			return server.BadRequest("query point %d has %d dims, dataset %q has %d", i, len(p), req.Index, ds.dim)
		}
	}
	g := r.newGather()
	res, pruned, err := r.routedBatch(ctx, g, ds, req.Points, int(req.K))
	if err != nil {
		return err
	}
	r.prune(pruned)
	results := make([]wire.Result, len(req.Points))
	for i, p := range req.Points {
		results[i] = wire.Result{ID: uint64(i), Point: p, Neighbors: res[i]}
	}
	return w.Send(hdr.ID, wire.KindResult, hdr.Op, &wire.BatchKNNReply{
		Results: results,
		Partial: r.finishPartial(g.partial()),
	})
}

// --- box queries ------------------------------------------------------------

// boxShards validates the box and selects the shards whose boundary
// MBR intersects it, counting the rest as pruned.
func (r *Router) boxShards(ds *dataset, name string, lo, hi []float64) ([]*shard, *wire.Error) {
	if len(lo) != ds.dim || len(hi) != ds.dim {
		return nil, server.BadRequest("box dims (%d, %d) do not match dataset %q dim %d", len(lo), len(hi), name, ds.dim)
	}
	for d := range lo {
		if lo[d] > hi[d] {
			return nil, server.BadRequest("inverted box bounds in dimension %d: [%g, %g]", d, lo[d], hi[d])
		}
	}
	box := geom.Rect{Lo: lo, Hi: hi}
	var hit []*shard
	pruned := 0
	for _, s := range ds.shards {
		if s.mbr.Intersects(box) {
			hit = append(hit, s)
		} else {
			pruned++
		}
	}
	r.prune(pruned)
	return hit, nil
}

func (r *Router) handleRange(ctx context.Context, hdr wire.RequestHeader, req *wire.RangeReq, w *server.ResponseWriter) error {
	ds, err := r.dataset(req.Index)
	if err != nil {
		return err
	}
	hit, werr := r.boxShards(ds, req.Index, req.Lo, req.Hi)
	if werr != nil {
		return werr
	}
	g := r.newGather()
	var mu sync.Mutex
	var ids []uint64
	if err := r.scatter(ctx, g, hit, func(s *shard) error {
		var local []uint64
		err := s.backend.do(ctx, func(cli *client.Client) error {
			var err error
			local, err = cli.Range(ctx, s.name, req.Lo, req.Hi)
			return err
		})
		if err != nil {
			return err
		}
		mu.Lock()
		for _, id := range local {
			ids = append(ids, id+s.idBase)
		}
		mu.Unlock()
		return nil
	}); err != nil {
		return err
	}
	// Canonical routed order: ascending global id (a single node's
	// traversal order does not survive a merge).
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return w.Send(hdr.ID, wire.KindResult, hdr.Op, &wire.RangeReply{
		IDs:     ids,
		Partial: r.finishPartial(g.partial()),
	})
}

func (r *Router) handleRangePoints(ctx context.Context, hdr wire.RequestHeader, req *wire.RangePointsReq, w *server.ResponseWriter) error {
	ds, err := r.dataset(req.Index)
	if err != nil {
		return err
	}
	hit, werr := r.boxShards(ds, req.Index, req.Lo, req.Hi)
	if werr != nil {
		return werr
	}
	g := r.newGather()
	type entry struct {
		id uint64
		pt []float64
	}
	var mu sync.Mutex
	var entries []entry
	if err := r.scatter(ctx, g, hit, func(s *shard) error {
		var ids []uint64
		var pts []ann.Point
		err := s.backend.do(ctx, func(cli *client.Client) error {
			var err error
			ids, pts, err = cli.RangePoints(ctx, s.name, req.Lo, req.Hi)
			return err
		})
		if err != nil {
			return err
		}
		mu.Lock()
		for i, id := range ids {
			entries = append(entries, entry{id: id + s.idBase, pt: pts[i]})
		}
		mu.Unlock()
		return nil
	}); err != nil {
		return err
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	reply := &wire.RangePointsReply{
		IDs:     make([]uint64, len(entries)),
		Points:  make([][]float64, len(entries)),
		Partial: r.finishPartial(g.partial()),
	}
	for i, e := range entries {
		reply.IDs[i] = e.id
		reply.Points[i] = e.pt
	}
	return w.Send(hdr.ID, wire.KindResult, hdr.Op, reply)
}

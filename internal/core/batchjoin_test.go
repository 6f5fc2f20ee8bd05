package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"allnn/internal/geom"
	"allnn/internal/index"
)

// probeOne offers one candidate object to every owner of the leaf — the
// scalar reference the batch form (add/probeAll + flush) is tested
// against: one candidate at a time, bounds read live.
func (j *leafJoin) probeOne(cand *index.Entry) {
	cp := cand.Point
	// Pre-filter against the leaf MBR: a candidate farther from the whole
	// leaf than every owner's bound cannot survive any per-owner probe.
	j.stats.DistanceCalcs++
	if geom.MinDistPointRectSq(cp, j.leafMBR) > j.maxOwnerBound {
		j.stats.PrunedOnProbe += uint64(len(j.owners))
		return
	}
	j.stats.DistanceCalcs += uint64(len(j.owners))
	ref := int32(-1)
	for i := range j.owners {
		base := j.flat[i*j.dim : (i+1)*j.dim]
		limit := j.admit[i]
		var s float64
		pruned := false
		for d := 0; d < j.dim; d++ {
			diff := base[d] - cp[d]
			s += diff * diff
			if s > limit {
				pruned = true
				break
			}
		}
		if pruned {
			j.stats.PrunedOnProbe++
			continue
		}
		if ref < 0 {
			ref = int32(len(j.cands))
			j.cands = append(j.cands, cand)
		}
		j.commit(i, s, ref)
	}
}

// topEntry is one filled slot of an owner's k best, as compared by the
// tests: the candidate's object id and the exact squared distance.
type topEntry struct {
	obj  index.ObjectID
	dist float64
}

// ownerTops snapshots every owner's k best.
func ownerTops(j *leafJoin) [][]topEntry {
	out := make([][]topEntry, len(j.owners))
	for i := range j.owners {
		ds, rs := j.top(i)
		for x := range ds {
			out[i] = append(out[i], topEntry{j.cands[rs[x]].Object, ds[x]})
		}
	}
	return out
}

// joinOutcome captures everything observable about a leaf join run: the
// work counters, every owner's k best (object ids and exact distance
// bits), and the final per-owner LPQ and admission bounds.
type joinOutcome struct {
	stats  Stats
	tops   [][]topEntry
	bounds []float64
	admit  []float64
}

// runLeafJoin replays one leaf-join scenario — a fixed owner set and a
// fixed sequence of candidate batches — through either the batch kernel
// path (add/probeAll + flush) or the scalar reference path (probeOne per
// candidate). The batch path deliberately defers its final flush to the
// end, maximising prefilter staleness; the commit pass must still
// reproduce the scalar decisions exactly.
func runLeafJoin(owners []index.Entry, leafOwner *index.Entry, inherited []float64,
	k int, kb KBound, batches [][]index.Entry, asLeaf []bool, batch bool) joinOutcome {

	var stats Stats
	q := newLPQ(leafOwner, math.Inf(1), k, kb, true, 1, &stats)

	dim := len(owners[0].Point)
	j := &leafJoin{}
	j.reset(dim, q, owners, inherited, &stats, nil)
	for bi, cands := range batches {
		switch {
		case !batch:
			for ci := range cands {
				j.probeOne(&cands[ci])
			}
		case asLeaf[bi]:
			j.probeAll(cands)
		default:
			for ci := range cands {
				j.add(&cands[ci])
			}
		}
	}
	if batch {
		j.flush()
	}
	j.finishCounts()

	out := joinOutcome{stats: stats, tops: ownerTops(j),
		bounds: append([]float64(nil), j.bound...),
		admit:  append([]float64(nil), j.admit...)}
	j.finish()
	return out
}

// TestBatchLeafJoinMatchesScalar is the property test for the batch
// kernel path: on random leaves (random owner counts, bounds, dimensions
// and candidate streams, including streams long enough to force mid-batch
// tile flushes, and duplicate candidates that tie) the batch path must
// produce bit-identical distances, identical per-owner k best, identical
// bounds and identical Stats to the scalar probeOne path.
func TestBatchLeafJoinMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for _, dim := range []int{2, 3, 7} {
		for _, k := range []int{1, 3} {
			for trial := 0; trial < 25; trial++ {
				kb := KBound(rng.Intn(2))
				m := 1 + rng.Intn(70)
				owners := make([]index.Entry, m)
				lo := make(geom.Point, dim)
				hi := make(geom.Point, dim)
				for d := 0; d < dim; d++ {
					lo[d], hi[d] = math.Inf(1), math.Inf(-1)
				}
				for i := range owners {
					p := make(geom.Point, dim)
					for d := 0; d < dim; d++ {
						p[d] = rng.Float64()
						if p[d] < lo[d] {
							lo[d] = p[d]
						}
						if p[d] > hi[d] {
							hi[d] = p[d]
						}
					}
					owners[i] = index.Entry{Kind: index.ObjectEntry, Object: index.ObjectID(i),
						Point: p, MBR: geom.Rect{Lo: p, Hi: p}, Count: 1}
				}
				leafOwner := &index.Entry{Kind: index.NodeEntry, MBR: geom.Rect{Lo: lo, Hi: hi},
					Count: uint32(m)}
				inherited := make([]float64, m)
				for i := range inherited {
					switch rng.Intn(3) {
					case 0:
						inherited[i] = math.Inf(1)
					case 1:
						inherited[i] = 0.05 + 0.1*rng.Float64()
					default:
						inherited[i] = 0.5 + rng.Float64()
					}
				}

				nBatches := 1 + rng.Intn(4)
				batches := make([][]index.Entry, nBatches)
				asLeaf := make([]bool, nBatches)
				id := 1000
				var prev geom.Point
				for bi := range batches {
					n := 1 + rng.Intn(2*geom.BlockCandTile)
					cands := make([]index.Entry, n)
					for ci := range cands {
						p := make(geom.Point, dim)
						switch {
						case prev != nil && rng.Intn(8) == 0:
							copy(p, prev) // a duplicate: equal distances to every owner
						default:
							for d := 0; d < dim; d++ {
								if rng.Intn(4) == 0 {
									p[d] = rng.Float64() * 10 // far: exercises the prefilter
								} else {
									p[d] = rng.Float64()
								}
							}
						}
						prev = p
						cands[ci] = index.Entry{Kind: index.ObjectEntry, Object: index.ObjectID(id),
							Point: p, MBR: geom.Rect{Lo: p, Hi: p}, Count: 1}
						id++
					}
					batches[bi] = cands
					asLeaf[bi] = rng.Intn(2) == 0
				}

				scalar := runLeafJoin(owners, leafOwner, inherited, k, kb, batches, asLeaf, false)
				batched := runLeafJoin(owners, leafOwner, inherited, k, kb, batches, asLeaf, true)

				if scalar.stats != batched.stats {
					t.Fatalf("dim=%d k=%d trial=%d: stats differ:\nscalar: %+v\nbatch:  %+v",
						dim, k, trial, scalar.stats, batched.stats)
				}
				if !reflect.DeepEqual(scalar.bounds, batched.bounds) || !reflect.DeepEqual(scalar.admit, batched.admit) {
					t.Fatalf("dim=%d k=%d trial=%d: bounds differ", dim, k, trial)
				}
				if !reflect.DeepEqual(scalar.tops, batched.tops) {
					t.Fatalf("dim=%d k=%d trial=%d: k best differ:\nscalar: %v\nbatch:  %v",
						dim, k, trial, scalar.tops, batched.tops)
				}
			}
		}
	}
}

// TestLeafCommitMatchesObjectLPQ pins the per-owner k best against the
// structure it replaces: the same admission stream is fed to one object
// LPQ per owner (probe test, enqueueChecked, then a Gather Stage taking
// the first k) and to the leaf join's commit. Distances are drawn from a
// coarse grid so ties are frequent. Every admission bound must agree bit
// for bit at every step, the k best must equal the LPQ's first k items in
// order, and all counters — including PrunedByFilter and the Gather
// Stage's PrunedEntries — must match, under both k-bound rules, volatile
// bounds and approximate shrinking.
func TestLeafCommitMatchesObjectLPQ(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 400; trial++ {
		k := 1 + rng.Intn(4)
		kb := KBound(rng.Intn(2))
		monotone := rng.Intn(2) == 0
		shrink := 1.0
		if rng.Intn(2) == 0 {
			shrink = 1 / 1.5
		}
		m := 1 + rng.Intn(6)
		owners := make([]index.Entry, m)
		inherited := make([]float64, m)
		for i := range owners {
			p := geom.Point{rng.Float64(), rng.Float64()}
			owners[i] = index.Entry{Kind: index.ObjectEntry, Object: index.ObjectID(i),
				Point: p, MBR: geom.Rect{Lo: p, Hi: p}, Count: 1}
			inherited[i] = math.Inf(1)
			if rng.Intn(2) == 0 {
				inherited[i] = float64(5 + rng.Intn(20))
			}
		}
		leaf := &index.Entry{Kind: index.NodeEntry,
			MBR: geom.Rect{Lo: geom.Point{0, 0}, Hi: geom.Point{1, 1}}, Count: uint32(m)}

		var refStats, gotStats Stats
		ref := make([]*lpq, m)
		for i := range owners {
			ref[i] = newLPQ(&owners[i], inherited[i], k, kb, monotone, shrink, &refStats)
		}
		q := newLPQ(leaf, math.Inf(1), k, kb, monotone, shrink, &gotStats)
		j := &leafJoin{}
		j.reset(2, q, owners, inherited, &gotStats, nil)
		refStats.LPQsCreated, gotStats.LPQsCreated = 0, 0

		steps := 1 + rng.Intn(60)
		for s := 0; s < steps; s++ {
			i := rng.Intn(m)
			d := float64(rng.Intn(30))
			cand := &index.Entry{Kind: index.ObjectEntry, Object: index.ObjectID(100 + s)}
			want := ref[i].admitBound()
			if got := j.admit[i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d step %d owner %d: admission bound %v, object LPQ %v", trial, s, i, got, want)
			}
			if d > want {
				refStats.PrunedOnProbe++
				gotStats.PrunedOnProbe++
				continue
			}
			ref[i].enqueueChecked(lpqItem{e: cand, mind: d, maxd: d})
			r := int32(len(j.cands))
			j.cands = append(j.cands, cand)
			j.commit(i, d, r)
		}
		j.finishCounts()

		got := ownerTops(j)
		for i, c := range ref {
			if math.Float64bits(j.bound[i]) != math.Float64bits(c.bound()) {
				t.Fatalf("trial %d owner %d: bound %v, object LPQ %v", trial, i, j.bound[i], c.bound())
			}
			// The Gather Stage takes the first k queued items and
			// discards the rest.
			var want []topEntry
			for x, it := range c.items[c.head:] {
				if x == k {
					refStats.PrunedEntries += uint64(c.len() - k)
					break
				}
				want = append(want, topEntry{it.e.Object, it.mind})
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("trial %d (k=%d kb=%d monotone=%v shrink=%v) owner %d:\n got  %v\n want %v",
					trial, k, kb, monotone, shrink, i, got[i], want)
			}
		}
		if gotStats != refStats {
			t.Fatalf("trial %d (k=%d kb=%d monotone=%v shrink=%v): stats\n got  %+v\n want %+v",
				trial, k, kb, monotone, shrink, gotStats, refStats)
		}
		j.finish()
	}
}

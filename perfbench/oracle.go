package main

import (
	"fmt"
	"math"

	"allnn/ann"
	"allnn/internal/bruteforce"
	"allnn/internal/geom"
	"allnn/internal/index"
)

// matchOracle compares one answer with the brute-force oracle's: the
// distances must be identical bit for bit, and so must the ids, except
// among neighbors tied at the k-th distance, where either choice is
// correct. It returns "" on a match and a description otherwise.
func matchOracle(got []ann.Neighbor, want []bruteforce.Neighbor) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d neighbors, oracle has %d", len(got), len(want))
	}
	if len(want) == 0 {
		return ""
	}
	kth := want[len(want)-1].Dist
	ids := map[uint64]int{}
	for i := range want {
		if math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			return fmt.Sprintf("neighbor %d at distance %v, oracle %v", i, got[i].Dist, want[i].Dist)
		}
		if want[i].Dist < kth {
			ids[uint64(want[i].Object)]++
			ids[got[i].ID]--
		}
	}
	for id, n := range ids {
		if n != 0 {
			return fmt.Sprintf("neighbor id %d differs from the oracle's", id)
		}
	}
	return ""
}

// oracleKNN answers kNN queries by exhaustive scan over a dataset.
func oracleKNN(ds bruteforce.Dataset, qs []geom.Point, k int) []bruteforce.Result {
	q := bruteforce.Dataset{IDs: make([]index.ObjectID, len(qs)), Points: qs}
	for i := range q.IDs {
		// Query ids never collide with dataset ids (no self-exclusion).
		q.IDs[i] = index.ObjectID(math.MaxUint64 - uint64(i))
	}
	return bruteforce.AkNN(q, ds, k, false)
}

// sameAnswer reports whether two kNN answers are byte-identical: ids,
// distance bits and coordinates.
func sameAnswer(a, b []ann.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) || len(a[i].Point) != len(b[i].Point) {
			return false
		}
		for d := range a[i].Point {
			if math.Float64bits(a[i].Point[d]) != math.Float64bits(b[i].Point[d]) {
				return false
			}
		}
	}
	return true
}

// wellFormed checks a kNN answer's shape: k neighbors, ascending
// distance.
func wellFormed(nbs []ann.Neighbor, k int) string {
	if len(nbs) != k {
		return fmt.Sprintf("%d neighbors, want %d", len(nbs), k)
	}
	for i := 1; i < len(nbs); i++ {
		if nbs[i].Dist < nbs[i-1].Dist {
			return fmt.Sprintf("neighbors out of distance order at %d", i)
		}
	}
	return ""
}

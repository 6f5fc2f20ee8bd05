package main

import (
	"io"
	"reflect"
	"testing"
)

// TestFingerprintRepeats runs every workload's traced pass twice with
// one seed and requires the deterministic counters to repeat exactly.
func TestFingerprintRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every workload's full-size stack twice")
	}
	want := map[string][]string{
		"join":       {"core.distance_calcs", "core.nodes_expanded"},
		"routed-knn": {"router.shards_contacted"},
		"write-mix":  {"wal.replay_records"},
	}
	for name, fn := range workloads {
		name, fn := name, fn
		t.Run(name, func(t *testing.T) {
			var prints []map[string]uint64
			for i := 0; i < 2; i++ {
				r, err := execute(name, fn, 3, 1, true, t.TempDir(), io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !r.correct() {
					t.Fatalf("oracle checks failed: %+v", r.checks)
				}
				prints = append(prints, r.fingerprint)
			}
			for _, k := range want[name] {
				if prints[0][k] == 0 {
					t.Errorf("fingerprint %s missing or 0: %v", k, prints[0])
				}
			}
			if !reflect.DeepEqual(prints[0], prints[1]) {
				t.Errorf("fingerprint changed between runs:\n%v\n%v", prints[0], prints[1])
			}
		})
	}
}

func TestCovered(t *testing.T) {
	for _, tc := range []struct {
		lo, hi   int64
		children [][2]int64
		want     int64
	}{
		{0, 100, nil, 0},
		{0, 100, [][2]int64{{10, 20}, {15, 30}, {50, 60}}, 30},
		{0, 100, [][2]int64{{-5, 10}, {90, 120}}, 20},
		{0, 100, [][2]int64{{40, 50}, {10, 20}}, 20},
		{0, 100, [][2]int64{{200, 300}}, 0},
	} {
		if got := covered(tc.lo, tc.hi, tc.children); got != tc.want {
			t.Errorf("covered(%d, %d, %v) = %d, want %d", tc.lo, tc.hi, tc.children, got, tc.want)
		}
	}
}

package core

import (
	"fmt"
	"math"
	"testing"

	"allnn/internal/datagen"
	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/mbrqt"
	"allnn/internal/rstar"
)

// goldenFingerprint renders everything a golden case pins: the hash of
// the emitted stream (row order, neighbor ids, distance bits) and the
// traversal counters that must not move when the engine is restructured.
// The node-cache hit/miss split is deliberately absent: it depends on
// cache residency.
func goldenFingerprint(h uint64, s Stats) string {
	return fmt.Sprintf("%016x dc=%d lpq=%d enq=%d probe=%d filter=%d nr=%d ns=%d sub=%d ent=%d res=%d et=%d",
		h, s.DistanceCalcs, s.LPQsCreated, s.Enqueued, s.PrunedOnProbe, s.PrunedByFilter,
		s.NodesExpandedR, s.NodesExpandedS, s.PrunedSubtrees, s.PrunedEntries,
		s.Results, s.LPQEarlyTerms)
}

// goldenPoints is the golden dataset: a seeded 20k-point TAC surrogate.
// With snap > 0 every coordinate is rounded to a multiple of snap, which
// turns the catalog into one full of duplicate points and equal
// distances — the tie-ordering stress case.
func goldenPoints(n int, snap float64) []geom.Point {
	pts := datagen.TACSurrogate(12, n)
	if snap > 0 {
		for _, p := range pts {
			for d := range p {
				p[d] = math.Round(p[d]/snap) * snap
			}
		}
	}
	return pts
}

// goldenSeeds derives BoundSeedSq from an exact run: each object's k-th
// neighbor distance, squared and inflated by a hair so it stays an upper
// bound.
func goldenSeeds(t *testing.T, ix index.Tree, n int, opts Options) []float64 {
	t.Helper()
	seeds := make([]float64, n)
	_, err := Run(ix, ix, opts, func(r Result) error {
		d := r.Neighbors[len(r.Neighbors)-1].Dist
		seeds[r.Object] = d * d * (1 + 1e-9)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return seeds
}

// goldenWant holds the fingerprints recorded from the engine in which
// every query object still owned an object LPQ drained by the Gather
// Stage. The leaf join must reproduce them bit for bit.
var goldenWant = map[string]string{
	"mbrqt/k1/exact":                      "e636bf9659c10431 dc=7441228 lpq=20185 enq=253129 probe=24563217 filter=193531 nr=185 ns=1548 sub=1460 ent=0 res=20000 et=0",
	"mbrqt/k1/eps0.5":                     "c69ae640f07b92ad dc=6675560 lpq=20185 enq=194710 probe=23833644 filter=141098 nr=185 ns=1375 sub=694 ent=0 res=20000 et=49",
	"mbrqt/k1/volatile":                   "e636bf9659c10431 dc=7441228 lpq=20185 enq=253129 probe=24563217 filter=193531 nr=185 ns=1548 sub=1460 ent=0 res=20000 et=0",
	"mbrqt/k1/maxmax":                     "e636bf9659c10431 dc=7677407 lpq=20185 enq=263680 probe=25047793 filter=199653 nr=185 ns=1548 sub=1781 ent=0 res=20000 et=0",
	"mbrqt/k1/perobject":                  "e636bf9659c10431 dc=20326937 lpq=20185 enq=228631 probe=20098306 filter=168686 nr=185 ns=1704 sub=1468 ent=15609 res=20000 et=0",
	"mbrqt/k1/seeded":                     "e636bf9659c10431 dc=6021352 lpq=20185 enq=61183 probe=24755163 filter=1585 nr=185 ns=1548 sub=1460 ent=0 res=20000 et=0",
	"mbrqt/k4/exact":                      "d52f8e76d5b05911 dc=8880392 lpq=20185 enq=535983 probe=24961868 filter=413180 nr=185 ns=1566 sub=1601 ent=0 res=20000 et=0",
	"mbrqt/k4/eps0.5":                     "c02de6b8ab0b3c7e dc=7868358 lpq=20185 enq=414121 probe=24394416 filter=296719 nr=185 ns=1431 sub=1244 ent=0 res=20000 et=29",
	"mbrqt/k4/volatile":                   "d52f8e76d5b05911 dc=8880392 lpq=20185 enq=535983 probe=24961868 filter=413180 nr=185 ns=1566 sub=1601 ent=0 res=20000 et=0",
	"mbrqt/k4/maxmax":                     "d52f8e76d5b05911 dc=9335092 lpq=20185 enq=562320 probe=25785746 filter=431657 nr=185 ns=1602 sub=2393 ent=0 res=20000 et=0",
	"mbrqt/k4/perobject":                  "d52f8e76d5b05911 dc=20761073 lpq=20185 enq=478262 probe=20282811 filter=354502 nr=185 ns=2013 sub=1609 ent=18421 res=20000 et=0",
	"mbrqt/k4/seeded":                     "d52f8e76d5b05911 dc=7059323 lpq=20185 enq=126365 probe=25371486 filter=3562 nr=185 ns=1566 sub=1601 ent=0 res=20000 et=0",
	"mbrqt-4k/k1/maxall":                  "77bd2332d38d5d0f dc=5620343 lpq=4037 enq=1218728 probe=6177994 filter=0 nr=37 ns=383 sub=94 ent=1203033 res=4000 et=0",
	"mbrqt-4k/k1/maxall-volatile":         "77bd2332d38d5d0f dc=5657025 lpq=4037 enq=1243585 probe=8030091 filter=0 nr=37 ns=400 sub=169 ent=1208726 res=4000 et=0",
	"mbrqt-4k/k4/maxall":                  "94566d359dee2f7b dc=6547945 lpq=4037 enq=1885436 probe=6768459 filter=0 nr=37 ns=431 sub=121 ent=1850711 res=4000 et=0",
	"mbrqt-4k/k4/maxall-volatile":         "94566d359dee2f7b dc=6563989 lpq=4037 enq=1898161 probe=8031682 filter=0 nr=37 ns=437 sub=172 ent=1850711 res=4000 et=0",
	"rstar/k1/exact":                      "fa48e69d931e738d dc=6835627 lpq=20111 enq=557985 probe=24065805 filter=515936 nr=111 ns=743 sub=1306 ent=0 res=20000 et=0",
	"rstar/k1/eps0.5":                     "906981b8a52c42e8 dc=6487375 lpq=20111 enq=289645 probe=23898788 filter=247761 nr=111 ns=730 sub=1154 ent=0 res=20000 et=21",
	"rstar/k1/maxmax":                     "fa48e69d931e738d dc=6835627 lpq=20111 enq=561588 probe=24062202 filter=518613 nr=111 ns=743 sub=2232 ent=0 res=20000 et=0",
	"rstar/k4/exact":                      "3c05e48fb2a4d13d dc=8299799 lpq=20111 enq=879913 probe=25374773 filter=777194 nr=111 ns=792 sub=1927 ent=0 res=20000 et=0",
	"rstar/k4/eps0.5":                     "d6337839926e943a dc=7672298 lpq=20111 enq=542129 probe=24948349 filter=439670 nr=111 ns=769 sub=1690 ent=0 res=20000 et=30",
	"rstar/k4/maxmax":                     "3c05e48fb2a4d13d dc=8299799 lpq=20111 enq=880723 probe=25373963 filter=776679 nr=111 ns=792 sub=3252 ent=0 res=20000 et=0",
	"mbrqt-snapped/k1/exact":              "be7ded0969f7da0c dc=7436764 lpq=20185 enq=254523 probe=24552629 filter=193617 nr=185 ns=1547 sub=1462 ent=1325 res=20000 et=0",
	"mbrqt-snapped/k1/eps0.5":             "1ba794ba5ce51aa1 dc=6680610 lpq=20185 enq=194335 probe=23853824 filter=140374 nr=185 ns=1375 sub=694 ent=401 res=20000 et=47",
	"mbrqt-snapped/k1/volatile":           "be7ded0969f7da0c dc=7436764 lpq=20185 enq=254523 probe=24552629 filter=193617 nr=185 ns=1547 sub=1462 ent=1325 res=20000 et=0",
	"mbrqt-snapped/k1/seeded":             "be7ded0969f7da0c dc=6018127 lpq=20185 enq=62370 probe=24744782 filter=1464 nr=185 ns=1547 sub=1462 ent=1325 res=20000 et=0",
	"mbrqt-snapped/k4/exact":              "110114138c04b739 dc=8880554 lpq=20185 enq=537012 probe=24961203 filter=412221 nr=185 ns=1566 sub=1604 ent=1973 res=20000 et=0",
	"mbrqt-snapped/k4/eps0.5":             "d83d8736562a5a28 dc=7872718 lpq=20185 enq=413821 probe=24394307 filter=295574 nr=185 ns=1431 sub=1227 ent=888 res=20000 et=29",
	"mbrqt-snapped/k4/volatile":           "110114138c04b739 dc=8880554 lpq=20185 enq=537012 probe=24961203 filter=412221 nr=185 ns=1566 sub=1604 ent=1973 res=20000 et=0",
	"mbrqt-snapped/k4/seeded":             "110114138c04b739 dc=7061264 lpq=20185 enq=128202 probe=25370013 filter=3411 nr=185 ns=1566 sub=1604 ent=1973 res=20000 et=0",
	"mbrqt-snapped-4k/k1/maxall":          "91ca24e3dafca9f1 dc=5620013 lpq=4037 enq=1218734 probe=6178149 filter=0 nr=37 ns=383 sub=94 ent=1203037 res=4000 et=0",
	"mbrqt-snapped-4k/k1/maxall-volatile": "91ca24e3dafca9f1 dc=5660483 lpq=4037 enq=1245490 probe=8249382 filter=0 nr=37 ns=402 sub=176 ent=1208736 res=4000 et=0",
	"mbrqt-snapped-4k/k4/maxall":          "9135bcaee0c72c58 dc=6541841 lpq=4037 enq=1882388 probe=6803941 filter=0 nr=37 ns=431 sub=129 ent=1847457 res=4000 et=0",
	"mbrqt-snapped-4k/k4/maxall-volatile": "9135bcaee0c72c58 dc=6566108 lpq=4037 enq=1899867 probe=8606336 filter=0 nr=37 ns=441 sub=187 ent=1847457 res=4000 et=0",
	"small/bucket16/k1":                   "6435a076861b33e4 dc=29413 lpq=1072 enq=6670 probe=32832 filter=2941 nr=172 ns=812 sub=742 ent=0 res=900 et=0",
	"small/bucket16/k4":                   "61fe57a850de9abc dc=44789 lpq=1072 enq=13146 probe=42927 filter=5816 nr=172 ns=1116 sub=1034 ent=0 res=900 et=0",
	"small/page/k1":                       "9a8ede21fa5b1618 dc=289265 lpq=905 enq=9844 probe=800173 filter=8027 nr=5 ns=17 sub=0 ent=0 res=900 et=0",
	"small/page/k4":                       "30210d527cd61744 dc=336745 lpq=905 enq=21315 probe=788702 filter=16798 nr=5 ns=17 sub=0 ent=0 res=900 et=0",
	"small/bucket100/k1":                  "c10c97634e358e98 dc=101996 lpq=921 enq=7731 probe=356425 filter=5735 nr=21 ns=115 sub=81 ent=0 res=900 et=0",
	"small/bucket100/k4":                  "8711272f56198920 dc=126334 lpq=921 enq=16079 probe=353596 filter=11350 nr=21 ns=117 sub=112 ent=0 res=900 et=0",
}

// TestGoldenSelfJoin pins the stream hash and traversal counters of a
// seeded 20k-point self-join across the option matrix the shared leaf
// join serves (exact, ε, both k-bound rules, volatile bounds, both
// metrics, seeded bounds, the per-object-gather ablation), on MBRQT and R*-tree indexes and a duplicate-heavy variant of the
// dataset, serially and at Parallelism 2 with ordered emission.
func TestGoldenSelfJoin(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-point self-joins over the full option matrix")
	}
	type mode struct {
		name string
		set  func(o *Options)
	}
	all := []mode{
		{"exact", func(o *Options) {}},
		{"eps0.5", func(o *Options) { o.Epsilon = 0.5 }},
		{"maxall", func(o *Options) { o.KBound = KBoundMaxAll }},
		{"maxall-volatile", func(o *Options) { o.KBound = KBoundMaxAll; o.VolatileBounds = true }},
		{"volatile", func(o *Options) { o.VolatileBounds = true }},
		{"maxmax", func(o *Options) { o.Metric = MaxMaxDist }},
		{"perobject", func(o *Options) { o.PerObjectGather = true }},
		{"seeded", nil}, // BoundSeedSq from an exact run
	}
	pick := func(names ...string) []mode {
		var out []mode
		for _, m := range all {
			for _, n := range names {
				if m.name == n {
					out = append(out, m)
				}
			}
		}
		return out
	}
	mbrqtDefault := func(pts []geom.Point) (index.Tree, error) {
		return mbrqt.BulkLoad(newPool(1<<14), pts, nil, mbrqt.Config{})
	}
	// The paper's KBoundMaxAll bound keeps whole candidate lists alive,
	// so its cases run on a 4k-point prefix of the catalog to keep the
	// test fast.
	datasets := []struct {
		name  string
		n     int
		snap  float64
		build func(pts []geom.Point) (index.Tree, error)
		modes []mode
	}{
		{"mbrqt", 20000, 0, mbrqtDefault,
			pick("exact", "eps0.5", "volatile", "maxmax", "perobject", "seeded")},
		{"mbrqt-4k", 4000, 0, mbrqtDefault, pick("maxall", "maxall-volatile")},
		{"rstar", 20000, 0, func(pts []geom.Point) (index.Tree, error) {
			return rstar.BulkLoad(newPool(1<<14), pts, nil, rstar.Config{})
		}, pick("exact", "eps0.5", "maxmax")},
		{"mbrqt-snapped", 20000, 0.05, mbrqtDefault, pick("exact", "eps0.5", "volatile", "seeded")},
		{"mbrqt-snapped-4k", 4000, 0.05, mbrqtDefault, pick("maxall", "maxall-volatile")},
	}
	for _, ds := range datasets {
		ix, err := ds.build(goldenPoints(ds.n, ds.snap))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 4} {
			for _, m := range ds.modes {
				name := fmt.Sprintf("%s/k%d/%s", ds.name, k, m.name)
				t.Run(name, func(t *testing.T) {
					opts := Options{K: k, ExcludeSelf: true}
					if m.set != nil {
						m.set(&opts)
					} else {
						opts.BoundSeedSq = goldenSeeds(t, ix, ds.n, opts)
					}
					for _, par := range []int{1, 2} {
						o := opts
						o.Parallelism = par
						o.OrderedEmit = true
						h, s := hashRun(t, ix, ix, o)
						got := goldenFingerprint(h, s)
						if want, ok := goldenWant[name]; !ok || got != want {
							t.Errorf("parallelism %d: fingerprint\n got  %q\n want %q", par, got, want)
						}
					}
				})
			}
		}
	}
}

// TestGoldenSmallParallel covers the scheduler paths that only small
// inputs reach: with fewer than 1024 points the split threshold bottoms
// out at minSplitCount, so leaf owners are joined by buildFrontier and
// (with 100-point buckets, leaves above the threshold) by the
// dynamic-split path rather than inside a subtree task. Their rows must
// still land in their ordered-emit slot: the parallel stream equals the
// serial one, which is pinned too.
func TestGoldenSmallParallel(t *testing.T) {
	for _, ds := range []struct {
		name string
		cfg  mbrqt.Config
	}{
		{"bucket16", mbrqt.Config{BucketCapacity: 16}},
		{"page", mbrqt.Config{}},
		{"bucket100", mbrqt.Config{BucketCapacity: 100}},
	} {
		ix, err := mbrqt.BulkLoad(newPool(4096), goldenPoints(900, 0), nil, ds.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 4} {
			name := fmt.Sprintf("small/%s/k%d", ds.name, k)
			t.Run(name, func(t *testing.T) {
				for _, par := range []int{1, 2, 4} {
					o := Options{K: k, ExcludeSelf: true, Parallelism: par, OrderedEmit: true}
					h, s := hashRun(t, ix, ix, o)
					got := goldenFingerprint(h, s)
					if want, ok := goldenWant[name]; !ok || got != want {
						t.Errorf("parallelism %d: fingerprint\n got  %q\n want %q", par, got, want)
					}
				}
			})
		}
	}
}

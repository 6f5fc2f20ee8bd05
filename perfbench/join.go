package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"allnn/ann"
	"allnn/ann/client"
	"allnn/internal/bruteforce"
	"allnn/internal/datagen"
	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/server"
)

// join workload shape: the paper's operation, a self all-kNN join over a
// TAC-like star catalog, streamed through annserve on one connection.
const (
	joinPoints     = 300_000
	joinK          = 4
	joinMinRuns    = 3    // joins per run even when --seconds is short
	joinOracleRows = 200  // rows checked against brute force
	knnReplayN     = 2000 // queries replayed in-process for ann.knn_us
)

// joinPass is one served self-join as the client saw it.
type joinPass struct {
	dur  time.Duration
	rows uint64
	hash uint64
	rep  *client.QueryReport
}

func runJoin(r *run) error {
	pts := datagen.TACSurrogate(r.seed, joinPoints)
	apts := toAnn(pts)
	r.connections = 1
	r.fact("dataset", "datagen.TACSurrogate 2-D")
	r.fact("points", len(pts))
	r.fact("k", joinK)
	r.fact("index", "MBRQT, in-memory, default 64 MiB buffer pool, default 32 MiB node cache")
	r.fact("loop", "closed: one streamed self-join at a time on 1 connection")

	var log *accessLog
	if r.traced {
		log = &accessLog{}
		r.spans.SetThreadName(laneSetup, "setup")
		r.spans.SetThreadName(laneClient, "client")
		r.spans.SetThreadName(laneClient+1, "annserve")
	}
	var (
		ix         *ann.Index
		cl         *client.Client
		buildTimes []float64
	)
	setup, teardown, err := timedSetups(func() (func() error, error) {
		t0 := time.Now()
		x, err := ann.BuildIndex(apts, ann.IndexConfig{})
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		buildTimes = append(buildTimes, t1.Sub(t0).Seconds())
		s, err := serve("tac", x, server.Config{}, log)
		if err != nil {
			x.Close()
			return nil, err
		}
		c, err := client.Dial(s.addr)
		if err != nil {
			s.stop(true)
			return nil, err
		}
		r.spans.Complete("setup.build_index", laneSetup, t0, t1, "", 0)
		r.spans.Complete("setup.serve_dial", laneSetup, t1, time.Now(), "", 0)
		ix, cl = x, c
		return func() error { c.Close(); return s.stop(true) }, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	// Rows checked against brute force, chosen by the seed.
	rng := rand.New(rand.NewSource(r.seed))
	sample := sampleIndices(rng, len(pts), joinOracleRows)
	sampled := make(map[uint64]int, len(sample))
	for i, id := range sample {
		sampled[uint64(id)] = i
	}
	got := make([][]ann.Neighbor, len(sample))

	before := ix.Stats()
	pins := startPinSampler(r.traced, []*ann.Index{ix})

	var passes []joinPass
	var streamErr string
	stop := deadline(time.Duration(r.seconds) * time.Second)
	for i := 0; i < joinMinRuns || !stop(); i++ {
		r.attempted++
		t0 := time.Now()
		p, bad, err := streamJoin(cl, len(pts), r.traced, func(res ann.Result) {
			if j, ok := sampled[res.ID]; ok && got[j] == nil {
				got[j] = res.Neighbors
			}
		})
		p.dur = time.Since(t0)
		if err != nil {
			r.failed++
			if streamErr == "" {
				streamErr = err.Error()
			}
			break
		}
		if bad != "" && streamErr == "" {
			streamErr = bad
		}
		r.spans.Complete("client.self_join", laneClient, t0, t0.Add(p.dur), "req", int64(i))
		passes = append(passes, p)
	}
	pinsMax := pins.stop()
	after := ix.Stats()

	// Oracle checks.
	r.check("join.rows", streamErr == "" && len(passes) > 0, "%d joins, every row once, %d neighbors each%s", len(passes), joinK, errSuffix(streamErr))
	identical := len(passes) > 0
	for _, p := range passes {
		identical = identical && p.hash == passes[0].hash
	}
	r.check("join.stream_hash_repeats", identical, "traversal-order stream hash identical across %d joins", len(passes))
	want := bruteforce.AkNN(sampleDataset(pts, sample), bruteforce.FromPoints(pts), joinK, true)
	mismatch := ""
	for i := range want {
		if got[i] == nil {
			mismatch = fmt.Sprintf("sampled row %d never streamed", sample[i])
			break
		}
		if m := matchOracle(got[i], want[i].Neighbors); m != "" {
			mismatch = fmt.Sprintf("row %d: %s", sample[i], m)
			break
		}
	}
	r.check("join.oracle_sample", mismatch == "", "%d sampled rows vs internal/bruteforce.AkNN%s", len(want), errSuffix(mismatch))
	if len(passes) == 0 {
		return nil
	}

	// End-to-end.
	durs := make([]time.Duration, len(passes))
	var rows uint64
	var total time.Duration
	for i, p := range passes {
		durs[i] = p.dur
		rows += p.rows
		total += p.dur
	}
	sort.Slice(durs, func(a, b int) bool { return durs[a] < durs[b] })
	p50, p99 := percentileMS(durs, 0.5), percentileMS(durs, 0.99)
	rowsPerS := float64(len(pts)) / (p50 / 1e3)
	r.e2e("setup_s", "s", setup, fmt.Sprintf("median of %d builds: index build + annserve start + dial", setupReps))
	r.e2e("join_rows_per_s", "1/s", rowsPerS, fmt.Sprintf("%d rows / median join time; %d rows streamed over %d joins in %.2fs", len(pts), rows, len(passes), total.Seconds()))
	r.e2e("join_p50_ms", "ms", p50, fmt.Sprintf("whole served self-join, n=%d", len(durs)))
	r.e2e("join_p99_ms", "ms", p99, fmt.Sprintf("n=%d (the maximum at this sample size)", len(durs)))
	r.e2e("failed_frac", "frac", float64(r.failed)/float64(r.attempted), fmt.Sprintf("%d of %d joins", r.failed, r.attempted))
	r.gate("setup_s", setup)
	r.gate("work_per_s", rowsPerS)
	r.gate("latency_p50_ms", p50)
	r.gate("latency_p99_ms", p99)
	if !r.traced {
		return nil
	}
	return joinLayers(r, ix, pts, passes, log, buildTimes, pinsMax, before, after)
}

// streamJoin runs one served self-join, checking every row's shape and
// that each query point appears exactly once, and hashes the stream in
// traversal order.
func streamJoin(cl *client.Client, n int, wantReport bool, onRow func(ann.Result)) (joinPass, string, error) {
	var p joinPass
	st, err := cl.SelfJoinApprox(context.Background(), "tac", joinK, client.JoinOptions{WantReport: wantReport})
	if err != nil {
		return p, "", err
	}
	seen := make([]bool, n)
	var h hasher
	bad := ""
	for st.Next() {
		res := st.Result()
		p.rows++
		if res.ID >= uint64(n) || seen[res.ID] {
			if bad == "" {
				bad = fmt.Sprintf("row id %d repeated or out of range", res.ID)
			}
			continue
		}
		seen[res.ID] = true
		if m := wellFormed(res.Neighbors, joinK); m != "" && bad == "" {
			bad = fmt.Sprintf("row %d: %s", res.ID, m)
		}
		h.add(res.ID)
		for _, nb := range res.Neighbors {
			h.add(nb.ID, math.Float64bits(nb.Dist))
		}
		onRow(res)
	}
	if err := st.Close(); err != nil {
		return p, "", err
	}
	if p.rows != uint64(n) && bad == "" {
		bad = fmt.Sprintf("%d rows, want %d", p.rows, n)
	}
	p.hash = h.h
	p.rep = st.Report()
	return p, bad, nil
}

// joinLayers fills the per-layer table from the traced joins: the engine
// report each join carried back (QueryReport), the server's access log,
// and an in-process kNN replay on the same index.
func joinLayers(r *run, ix *ann.Index, pts []geom.Point, passes []joinPass, log *accessLog, buildTimes []float64, pinsMax int64, before, after ann.IndexStats) error {
	// The join with the median wall time stands for the run.
	order := make([]int, len(passes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return passes[order[a]].dur < passes[order[b]].dur })
	mid := passes[order[len(order)/2]]
	rep := mid.rep
	if rep == nil {
		return fmt.Errorf("served join returned no QueryReport")
	}
	e, t, s := rep.Engine, rep.Timings, rep.Sched
	stages := t.Expand + t.Filter + t.Gather
	workers := float64(runtime.GOMAXPROCS(0))

	r.layer("geom.kernel_pairs", "count", float64(s.KernelPairs), "owner x candidate pairs through DistSqBlock")
	r.layer("geom.kernel_early_out_frac", "frac", frac(float64(s.KernelEarlyOuts), float64(s.KernelPairs)), "pairs abandoned at the bound")
	r.layer("core.distance_calcs", "count", float64(e.DistanceCalcs), "deterministic")
	r.layer("core.nodes_expanded", "count", float64(e.NodesExpandedR+e.NodesExpandedS), "deterministic")
	r.layer("core.enqueue_frac", "frac", frac(float64(e.Enqueued), float64(e.Enqueued+e.PrunedOnProbe)), "Enqueued / (Enqueued + PrunedOnProbe)")
	r.layer("core.expand_s", "s", t.Expand.Seconds(), "stage clock summed over workers")
	r.layer("core.filter_s", "s", t.Filter.Seconds(), "stage clock summed over workers")
	r.layer("core.gather_s", "s", t.Gather.Seconds(), "stage clock summed over workers")
	r.layer("core.filter_frac", "frac", frac(float64(t.Filter), float64(stages)), "Filter / (Expand + Filter + Gather)")
	r.layer("core.worker_busy_frac", "frac", frac(float64(stages), float64(t.Wall)*workers), fmt.Sprintf("stage clocks / (wall x %d workers)", int(workers)))
	r.layer("core.steals", "count", float64(s.Steals), "")
	r.layer("core.splits", "count", float64(s.Splits), "")
	r.layer("nodecache.hit_frac", "frac", frac(float64(rep.Cache.Hits), float64(rep.Cache.Hits+rep.Cache.Misses)), "")
	r.layer("nodecache.invalidations", "count", float64(rep.Cache.Invalidations), "")
	hits, misses := float64(after.PoolHits-before.PoolHits), float64(after.PoolMisses-before.PoolMisses)
	r.layer("storage.pool_hit_frac", "frac", frac(hits, hits+misses), fmt.Sprintf("Stats() over all joins: %.0f hits, %.0f misses; the median join's report: %d hits, %d misses", hits, misses, rep.Pool.Hits, rep.Pool.Misses))
	r.layer("storage.page_reads_per_knn", "count", 0, "no kNN requests in this workload")
	r.layer("storage.page_writes", "count", float64(after.PoolWrites-before.PoolWrites), "Stats() over all joins")
	r.layer("storage.write_bytes_per_user_byte", "B/B", 0, "read-only workload")
	r.layer("wal.records_per_fsync", "count", 0, "in-memory index: no write-ahead log")
	r.layer("wal.bytes_per_user_byte", "B/B", 0, "in-memory index: no write-ahead log")
	r.layer("wal.replay_records", "count", 0, "in-memory index: no write-ahead log")
	r.layer("ann.build_s", "s", median(buildTimes), fmt.Sprintf("median of %d BuildIndex calls", len(buildTimes)))
	knnUS, err := replayKNN(ix, pts, r.seed, joinK+1)
	if err != nil {
		return err
	}
	r.layer("ann.knn_us", "us", knnUS, fmt.Sprintf("median in-process NearestNeighbors(k=%d) over %d sampled points", joinK+1, knnReplayN))
	r.layer("ann.snapshot_pins_max", "count", float64(pinsMax), "sampled from Stats() every 2ms")

	logged, err := take(len(passes), log)
	if err != nil {
		return err
	}
	var joins []server.SlowQuery
	for _, en := range logged[0] {
		if en.Op == "join" {
			joins = append(joins, en)
		}
	}
	if len(joins) != len(passes) {
		return fmt.Errorf("access log has %d join entries for %d joins", len(joins), len(passes))
	}
	var wait, engine, flush, latency, overhead, bytesOut, rows float64
	for i, j := range joins {
		wait += float64(j.AdmissionWaitNs)
		engine += float64(j.EngineNs)
		flush += float64(j.FlushNs)
		latency += float64(j.LatencyNs)
		overhead += float64(passes[i].dur.Nanoseconds() - j.LatencyNs)
		bytesOut += float64(j.BytesOut)
		rows += float64(passes[i].rows)
		serverSpan(r.spans, laneClient+1, j, int64(i))
	}
	n := float64(len(joins))
	r.layer("server.admission_wait_ms", "ms", wait/n/1e6, "mean per join")
	r.layer("server.request_ms", "ms", latency/n/1e6, "mean server latency per join")
	r.layer("server.join_engine_s", "s", engine/n/1e9, "mean per join")
	r.layer("server.join_flush_s", "s", flush/n/1e9, "mean per join")
	r.layer("server.flush_ms", "ms", flush/n/1e6, "mean per join")
	r.layer("server.bytes_out_per_row", "B", bytesOut/rows, "")
	r.layer("client.wire_overhead_ms", "ms", overhead/n/1e6, "client join time - server latency, mean")
	routerAbsent(r)
	r.fingerprint["core.distance_calcs"] = e.DistanceCalcs
	r.fingerprint["core.nodes_expanded"] = e.NodesExpandedR + e.NodesExpandedS
	r.tracingOverhead()
	return nil
}

// replayKNN times in-process Index.NearestNeighbors over a seeded sample
// of the points and returns the median per-query time in microseconds.
func replayKNN(ix *ann.Index, pts []geom.Point, seed int64, k int) (float64, error) {
	rng := rand.New(rand.NewSource(seed + 7))
	idx := sampleIndices(rng, len(pts), knnReplayN)
	times := make([]float64, 0, len(idx))
	for _, i := range idx {
		t0 := time.Now()
		if _, err := ix.NearestNeighbors(pts[i], k); err != nil {
			return 0, err
		}
		times = append(times, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(times), nil
}

func sampleDataset(pts []geom.Point, idx []int) bruteforce.Dataset {
	ds := bruteforce.Dataset{IDs: make([]index.ObjectID, len(idx)), Points: make([]geom.Point, len(idx))}
	for i, j := range idx {
		ds.IDs[i] = index.ObjectID(j)
		ds.Points[i] = pts[j]
	}
	return ds
}

func errSuffix(s string) string {
	if s == "" {
		return ""
	}
	return ": " + s
}

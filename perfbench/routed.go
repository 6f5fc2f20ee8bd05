package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"allnn/ann"
	"allnn/ann/client"
	"allnn/internal/bruteforce"
	"allnn/internal/curve"
	"allnn/internal/datagen"
	"allnn/internal/geom"
	"allnn/internal/obs"
	"allnn/internal/router"
	"allnn/internal/server"
)

// routed-knn workload shape: point kNN through annrouter over four
// Hilbert-range annserve shards of clustered data, the bench-shard
// layout. Clustered data keeps shard MBRs tight, which is what gives the
// router's NXNDIST/MINDIST pruning something to cut.
const (
	clusteredPoints = 200_000
	routedShards    = 4
	knnK            = 10
	knnConns        = 2
	queryPoolSize   = 4096 // distinct queries, sampled from the data
	serialQueries   = 2000 // traced serial pass
	oracleQueries   = 100  // reference answers checked against brute force
	warmup          = time.Second
)

// clusteredData is the deduplicated clustered 2-D set both served
// kNN workloads use.
func clusteredData(seed int64) []geom.Point {
	return dedupe(datagen.GaussianClusters(seed, clusteredPoints, datagen.ScaledBounds(2, 1000), 40, 0.02))
}

func runRoutedKNN(r *run) error {
	pts := clusteredData(r.seed)
	r.connections = knnConns
	r.fact("dataset", "datagen.GaussianClusters 2-D, 40 clusters, deduplicated")
	r.fact("points", len(pts))
	r.fact("shards", routedShards)
	r.fact("curve", "hilbert")
	r.fact("k", knnK)
	r.fact("index", "MBRQT per shard, in-memory, default 64 MiB buffer pool")
	r.fact("loop", fmt.Sprintf("closed: %d connections, each waits for its reply", knnConns))

	var (
		shardIx    []*ann.Index
		shardSrv   []*served
		cls        []*client.Client
		reg        *obs.Registry
		part       *curve.Partitioning
		buildTimes []float64
		partTimes  []float64
	)
	if r.traced {
		r.spans.SetThreadName(laneSetup, "setup")
		r.spans.SetThreadName(laneClient, "client (serial pass)")
		for i := 0; i < routedShards; i++ {
			r.spans.SetThreadName(laneServer+int64(i), fmt.Sprintf("annserve shard %d", i))
		}
	}
	setup, teardown, err := timedSetups(func() (func() error, error) {
		var stack []func() error
		td := func() error {
			var first error
			for i := len(stack) - 1; i >= 0; i-- {
				if err := stack[i](); err != nil && first == nil {
					first = err
				}
			}
			return first
		}
		fail := func(err error) (func() error, error) { td(); return nil, err }
		t0 := time.Now()
		p, err := curve.Partition(pts, routedShards, curve.Hilbert)
		if err != nil {
			return nil, err
		}
		partTimes = append(partTimes, time.Since(t0).Seconds())
		r.spans.Complete("setup.partition", laneSetup, t0, time.Now(), "", 0)
		var ixs []*ann.Index
		var srvs []*served
		addrs := make([]string, len(p.Shards))
		var build time.Duration
		for i, s := range p.Shards {
			shardPts := make([]ann.Point, len(s.Points))
			for j, idx := range s.Points {
				shardPts[j] = ann.Point(pts[idx])
			}
			tb := time.Now()
			ix, err := ann.BuildIndex(shardPts, ann.IndexConfig{})
			if err != nil {
				return fail(err)
			}
			build += time.Since(tb)
			r.spans.Complete(fmt.Sprintf("setup.build_shard_%d", i), laneSetup, tb, time.Now(), "", 0)
			var log *accessLog
			if r.traced {
				log = &accessLog{}
			}
			sv, err := serve(fmt.Sprintf("clustered-%d", i), ix, server.Config{}, log)
			if err != nil {
				ix.Close()
				return fail(err)
			}
			stack = append(stack, func() error { return sv.stop(true) })
			ixs, srvs = append(ixs, ix), append(srvs, sv)
			addrs[i] = sv.addr
		}
		buildTimes = append(buildTimes, build.Seconds())
		var rg *obs.Registry
		if r.traced {
			rg = obs.NewRegistry()
		}
		tr := time.Now()
		rt, err := serveRouter(router.Config{Metrics: rg}, router.MapFromPartitioning("clustered", p, addrs))
		if err != nil {
			return fail(err)
		}
		stack = append(stack, rt.stop)
		cs, err := dialAll(rt.addr, knnConns)
		if err != nil {
			return fail(err)
		}
		stack = append(stack, func() error { closeAll(cs); return nil })
		r.spans.Complete("setup.router_dial", laneSetup, tr, time.Now(), "", 0)
		shardIx, shardSrv, cls, reg, part = ixs, srvs, cs, rg, p
		return td, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	// The single-node reference serves the same points in curve order —
	// the router's global id order — so answers compare byte for byte.
	ordered := make([]ann.Point, 0, len(pts))
	orderedGeom := make([]geom.Point, 0, len(pts))
	for _, s := range part.Shards {
		for _, idx := range s.Points {
			ordered = append(ordered, ann.Point(pts[idx]))
			orderedGeom = append(orderedGeom, pts[idx])
		}
	}
	single, err := ann.BuildIndex(ordered, ann.IndexConfig{})
	if err != nil {
		return err
	}
	defer single.Close()
	rng := rand.New(rand.NewSource(r.seed))
	pool := sampleIndices(rng, len(ordered), queryPoolSize)
	queries := make([]ann.Point, len(pool))
	refs := make([][]ann.Neighbor, len(pool))
	for i, idx := range pool {
		queries[i] = ordered[idx]
		if refs[i], err = single.NearestNeighbors(queries[i], knnK); err != nil {
			return err
		}
	}
	oq := make([]geom.Point, oracleQueries)
	for i := range oq {
		oq[i] = orderedGeom[pool[i]]
	}
	bad := ""
	for i, want := range oracleKNN(bruteforce.FromPoints(orderedGeom), oq, knnK) {
		if m := matchOracle(refs[i], want.Neighbors); m != "" {
			bad = fmt.Sprintf("query %d: %s", i, m)
			break
		}
	}
	r.check("routed.reference_vs_bruteforce", bad == "", "%d single-node reference answers vs internal/bruteforce%s", oracleQueries, errSuffix(bad))

	loopReq := func(c *client.Client, conn, i int) (string, error) {
		q := (i*knnConns + conn) % len(queries)
		nbs, err := c.KNN(context.Background(), "clustered", queries[q], knnK)
		if err != nil {
			return "", err
		}
		if !sameAnswer(nbs, refs[q]) {
			return fmt.Sprintf("routed answer to query %d differs from the single node", q), nil
		}
		return "", nil
	}

	warm := closedLoop(cls, deadline(warmup), loopReq)
	var statsBefore []ann.IndexStats
	for _, ix := range shardIx {
		statsBefore = append(statsBefore, ix.Stats())
	}
	// Each shard contact is one backend request and one access-log
	// entry; drain takes the entries of the contacts made since the last
	// drain.
	var logs []*accessLog
	for _, sv := range shardSrv {
		logs = append(logs, sv.log)
	}
	drained := 0
	drain := func() ([][]server.SlowQuery, error) {
		n := int(reg.Counter("router.shards_contacted").Value())
		es, err := take(n-drained, logs...)
		drained = n
		return es, err
	}
	if r.traced {
		if _, err := drain(); err != nil { // drop the warm-up
			return err
		}
	}
	pins := startPinSampler(r.traced, shardIx)
	st := closedLoop(cls, deadline(time.Duration(r.seconds)*time.Second), loopReq)
	pinsMax := pins.stop()
	r.attempted = warm.attempted + st.attempted
	r.failed = warm.failed + st.failed
	wrong := warm.wrong + st.wrong
	firstBad := firstOf(warm.firstBad, st.firstBad)
	r.check("routed.byte_identical", wrong == 0 && r.failed == 0, "%d routed answers compared with the single node over curve-ordered data%s", len(warm.lat)+len(st.lat)+int(wrong), errSuffix(firstBad))

	qps, p50, p99 := st.windowed()
	r.e2e("setup_s", "s", setup, fmt.Sprintf("median of %d: partition + %d shard builds + annserve x%d + annrouter + dial", setupReps, routedShards, routedShards))
	r.e2e("knn_qps", "1/s", qps, fmt.Sprintf("%d kNN over %.2fs, closed loop, %d connections; %s", len(st.lat), st.elapsed.Seconds(), knnConns, st.windowNote()))
	r.e2e("knn_p50_ms", "ms", p50, st.windowNote())
	r.e2e("knn_p99_ms", "ms", p99, st.windowNote())
	r.e2e("failed_frac", "frac", float64(r.failed)/float64(r.attempted), fmt.Sprintf("%d of %d requests", r.failed, r.attempted))
	r.gate("setup_s", setup)
	r.gate("work_per_s", qps)
	r.gate("latency_p50_ms", p50)
	r.gate("latency_p99_ms", p99)
	if !r.traced {
		return nil
	}

	// Per-layer: closed-loop aggregates first, from the shards' counters
	// and access logs.
	var dHits, dMisses, dReads, dWrites, dCHits, dCMisses, dInval float64
	for i, ix := range shardIx {
		a, b := statsBefore[i], ix.Stats()
		dHits += float64(b.PoolHits - a.PoolHits)
		dMisses += float64(b.PoolMisses - a.PoolMisses)
		dReads += float64(b.PoolReads - a.PoolReads)
		dWrites += float64(b.PoolWrites - a.PoolWrites)
		dCHits += float64(b.CacheHits - a.CacheHits)
		dCMisses += float64(b.CacheMisses - a.CacheMisses)
		dInval += float64(b.CacheInvalidations - a.CacheInvalidations)
	}
	perShard, err := drain()
	if err != nil {
		return err
	}
	var backendEntries []server.SlowQuery
	for _, es := range perShard {
		backendEntries = append(backendEntries, es...)
	}
	engineLayersAbsent(r)
	r.layer("nodecache.hit_frac", "frac", frac(dCHits, dCHits+dCMisses), "shard indexes, closed loop")
	r.layer("nodecache.invalidations", "count", dInval, "")
	r.layer("storage.pool_hit_frac", "frac", frac(dHits, dHits+dMisses), "shard pools, closed loop")
	r.layer("storage.page_reads_per_knn", "count", dReads/float64(len(st.lat)), "store page reads per routed kNN")
	r.layer("storage.page_writes", "count", dWrites, "")
	r.layer("storage.write_bytes_per_user_byte", "B/B", 0, "read-only workload")
	walAbsent(r)
	r.layer("ann.build_s", "s", median(buildTimes), fmt.Sprintf("sum of %d shard BuildIndex calls, median of %d setups", routedShards, setupReps))
	r.layer("curve.partition_s", "s", median(partTimes), "curve.Partition, median")
	knnUS, err := replayKNN(single, orderedGeom, r.seed, knnK)
	if err != nil {
		return err
	}
	r.layer("ann.knn_us", "us", knnUS, fmt.Sprintf("median in-process NearestNeighbors(k=%d) on the single-node index", knnK))
	r.layer("ann.snapshot_pins_max", "count", float64(pinsMax), "max over shards, sampled from Stats() every 2ms")
	serverReport(r, "batch_knn", backendEntries)

	return routedSerialPass(r, cls[0], drain, reg, queries, refs, single)
}

// routedSerialPass sends a fixed query sample one at a time on one
// connection, so every backend access-log interval falls inside exactly
// one routed request: those intervals become the request's child spans,
// and router self time is the request span minus their union. The same
// sample then runs against a served single node, which gives the wire
// overhead (client latency minus server latency) a routed request is
// compared with.
func routedSerialPass(r *run, cl *client.Client, drain func() ([][]server.SlowQuery, error), reg *obs.Registry, queries []ann.Point, refs [][]ann.Neighbor, single *ann.Index) error {
	n := serialQueries
	if n > len(queries) {
		n = len(queries)
	}
	before := reg.Snapshot()
	reqs := make([][2]int64, n)
	wrong := 0
	for i := 0; i < n; i++ {
		t0 := time.Now()
		nbs, err := cl.KNN(context.Background(), "clustered", queries[i], knnK)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("serial pass: %w", err)
		}
		if !sameAnswer(nbs, refs[i]) {
			wrong++
		}
		reqs[i] = [2]int64{t0.UnixNano(), t1.UnixNano()}
		r.spans.Complete("client.knn_routed", laneClient, t0, t1, "req", int64(i))
	}
	after := reg.Snapshot()
	r.check("routed.serial_pass", wrong == 0, "%d of %d serial routed answers differ from the single node", wrong, n)

	perShard, err := drain()
	if err != nil {
		return err
	}
	children := make([][][2]int64, n)
	rpcs := 0
	for si, es := range perShard {
		for _, e := range es {
			lo, hi := interval(e)
			// The server stamps an entry after its reply is written, so
			// an interval may end just past the client's; its start
			// always falls inside the routed request that caused it.
			j := sort.Search(n, func(k int) bool { return reqs[k][0] > lo }) - 1
			if j < 0 || lo > reqs[j][1] {
				return fmt.Errorf("backend %s request at %d does not start inside any routed request", e.Op, lo)
			}
			children[j] = append(children[j], [2]int64{lo, hi})
			serverSpan(r.spans, laneServer+int64(si), e, int64(j))
			rpcs++
		}
	}
	var self, total float64
	for i, req := range reqs {
		d := req[1] - req[0]
		total += float64(d)
		self += float64(d - covered(req[0], req[1], children[i]))
	}
	contacted := after.Counters["router.shards_contacted"] - before.Counters["router.shards_contacted"]
	pruned := after.Counters["router.shards_pruned"] - before.Counters["router.shards_pruned"]
	var rpcCount uint64
	var rpcSum float64
	for name, h := range after.Histograms {
		if strings.HasPrefix(name, "router.shard.") {
			rpcCount += h.Count - before.Histograms[name].Count
			rpcSum += h.Sum - before.Histograms[name].Sum
		}
	}
	r.layer("router.shards_contacted_per_knn", "count", float64(contacted)/float64(n), fmt.Sprintf("serial pass of %d queries; deterministic", n))
	r.layer("router.shards_pruned_frac", "frac", frac(float64(pruned), float64(contacted+pruned)), "pruned / (contacted + pruned)")
	r.layer("router.backend_rpcs_per_knn", "count", float64(rpcs)/float64(n), "backend access-log entries per routed kNN")
	r.layer("router.shard_rpc_ms", "ms", frac(rpcSum, float64(rpcCount))/1e6, "mean backend RPC as the router timed it")
	r.layer("router.self_ms", "ms", self/float64(n)/1e6, "routed request span minus the union of its backend spans, mean")
	r.layer("router.self_frac", "frac", self/total, "router self time / routed request time")
	r.layer("router.request_ms", "ms", total/float64(n)/1e6, "client-observed routed kNN, serial, mean")
	r.fingerprint["router.shards_contacted"] = contacted

	// The single-node baseline, served, over the same sample. The
	// caller owns and closes the index, so the server leaves it open.
	log := &accessLog{}
	sv, err := serve("clustered", single, server.Config{}, log)
	if err != nil {
		return err
	}
	defer sv.stop(false)
	sc, err := client.Dial(sv.addr)
	if err != nil {
		return err
	}
	defer sc.Close()
	r.spans.SetThreadName(laneSingle, "client (single-node pass)")
	r.spans.SetThreadName(laneSingle+1, "annserve single node")
	overhead, singleMS, err := serialPass(r, sc, "clustered", queries[:n], log, laneSingle)
	if err != nil {
		return err
	}
	r.layer("client.wire_overhead_ms", "ms", overhead, "single node: client latency - server latency, mean")
	r.layer("single_node.request_ms", "ms", singleMS, "client-observed single-node kNN, serial, mean")
	r.tracingOverhead()
	return nil
}

// opTotals sums the access-log entries of one operation.
type opTotals struct{ n, wait, flush, bytesOut, latency float64 }

// serverReport adds the server rows: admission wait and flush over
// every request, and bytes per reply and server latency over the
// workload's read operation (readOp: "knn" direct, "batch_knn" when the
// router forwards a query to a backend), plus the write batches.
func serverReport(r *run, readOp string, es []server.SlowQuery) {
	ops := map[string]*opTotals{}
	var all opTotals
	for _, e := range es {
		t := ops[e.Op]
		if t == nil {
			t = &opTotals{}
			ops[e.Op] = t
		}
		for _, t := range []*opTotals{t, &all} {
			t.n++
			t.wait += float64(e.AdmissionWaitNs)
			t.flush += float64(e.FlushNs)
			t.bytesOut += float64(e.BytesOut)
			t.latency += float64(e.LatencyNs)
		}
	}
	read := ops[readOp]
	if read == nil {
		read = &opTotals{}
	}
	r.layer("server.admission_wait_ms", "ms", frac(all.wait, all.n)/1e6, fmt.Sprintf("mean over %d requests", int(all.n)))
	r.layer("server.flush_ms", "ms", frac(all.flush, all.n)/1e6, "mean per request")
	r.layer("server.bytes_out_per_row", "B", frac(read.bytesOut, read.n), "bytes per "+readOp+" reply (one result row)")
	r.layer("server.request_ms", "ms", frac(read.latency, read.n)/1e6, fmt.Sprintf("mean server latency, %d %s", int(read.n), readOp))
	for _, op := range []string{"insert", "delete"} {
		if t := ops[op]; t != nil {
			r.layer("server."+op+"_ms", "ms", t.latency/t.n/1e6, fmt.Sprintf("mean server latency, %d %s batches", int(t.n), op))
		}
	}
}

// routerAbsent records the router layer as idle.
func routerAbsent(r *run) {
	r.layer("router.shards_contacted_per_knn", "count", 0, "not routed")
	r.layer("router.backend_rpcs_per_knn", "count", 0, "not routed")
	r.layer("router.shards_pruned_frac", "frac", 0, "not routed")
	r.layer("router.self_frac", "frac", 0, "not routed")
}

// engineLayersAbsent records the join-engine layers as idle: point kNN
// runs the index's own best-first search, not the all-NN engine.
func engineLayersAbsent(r *run) {
	for _, name := range []string{"geom.kernel_pairs", "core.distance_calcs", "core.nodes_expanded", "core.steals", "core.splits"} {
		r.layer(name, "count", 0, "no all-NN join in this workload")
	}
	for _, name := range []string{"geom.kernel_early_out_frac", "core.enqueue_frac", "core.filter_frac", "core.worker_busy_frac"} {
		r.layer(name, "frac", 0, "no all-NN join in this workload")
	}
}

// walAbsent records the write-ahead-log layer as idle.
func walAbsent(r *run) {
	r.layer("wal.records_per_fsync", "count", 0, "in-memory indexes: no write-ahead log")
	r.layer("wal.bytes_per_user_byte", "B/B", 0, "in-memory indexes: no write-ahead log")
	r.layer("wal.replay_records", "count", 0, "in-memory indexes: no write-ahead log")
}

// pinSampler records the largest snapshot-pin count any index reports
// while it runs.
type pinSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	max  int64
}

func startPinSampler(on bool, ixs []*ann.Index) *pinSampler {
	p := &pinSampler{done: make(chan struct{})}
	if !on {
		return p
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.done:
				return
			case <-tick.C:
				for _, ix := range ixs {
					if v := ix.Stats().SnapshotPins; v > p.max {
						p.max = v
					}
				}
			}
		}
	}()
	return p
}

// stop ends sampling and returns the maximum seen.
func (p *pinSampler) stop() int64 {
	close(p.done)
	p.wg.Wait()
	return p.max
}

package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"allnn/ann"
	"allnn/ann/client"
	"allnn/internal/bruteforce"
	"allnn/internal/datagen"
	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/server"
	"allnn/internal/storage"
)

// write-mix workload shape: one file-backed index whose buffer pool is
// far smaller than its page file, a writer sending a fixed number of
// Insert+Delete batch pairs, and a reader running kNN until the writer is
// done. The fixed write volume keeps the WAL replay length identical from
// run to run.
const (
	writeBatch            = 64
	writeBatchesPerSecond = 30      // batch pairs per second of --seconds
	writePoolBytes        = 1 << 20 // well below the ~6 MB page file
	userBytesPerPoint     = 24      // what a client sends per 2-D point: 8-byte id + two float64s
	insertIDBase          = 1 << 32 // inserted ids never collide with base ids
)

func runWriteMix(r *run) error {
	pts := clusteredData(r.seed)
	batches := writeBatchesPerSecond * r.seconds
	inserts := insertPoints(r.seed, pts, batches*writeBatch)
	rng := rand.New(rand.NewSource(r.seed))
	deletes := sampleIndices(rng, len(pts), batches*writeBatch)
	r.connections = 2
	r.fact("dataset", "datagen.GaussianClusters 2-D, 40 clusters, deduplicated")
	r.fact("points", len(pts))
	r.fact("pool_bytes", writePoolBytes)
	r.fact("index", "MBRQT, file-backed with WAL, manual checkpoints (none during the run)")
	r.fact("write_batches", fmt.Sprintf("%d Insert + %d Delete batches of %d points", batches, batches, writeBatch))
	r.fact("k", knnK)
	r.fact("loop", "closed: 1 writer connection (fixed work) + 1 reader connection until the writer finishes")

	var log *accessLog
	if r.traced {
		log = &accessLog{}
		r.spans.SetThreadName(laneSetup, "setup")
		r.spans.SetThreadName(laneClient, "client reader (serial pass)")
		r.spans.SetThreadName(laneClient+1, "annserve")
	}
	var (
		ix         *ann.Index
		srv        *served
		writer     *client.Client
		reader     *client.Client
		path       string
		buildTimes []float64
	)
	apts := toAnn(pts)
	rep := 0
	setup, _, err := timedSetups(func() (func() error, error) {
		rep++
		p := filepath.Join(r.workDir, fmt.Sprintf("live-%d.pages", rep))
		t0 := time.Now()
		x, err := ann.BuildIndex(apts, ann.IndexConfig{PageFile: p, BufferPoolBytes: writePoolBytes})
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		buildTimes = append(buildTimes, t1.Sub(t0).Seconds())
		s, err := serve("live", x, server.Config{}, log)
		if err != nil {
			x.Close()
			return nil, err
		}
		cls, err := dialAll(s.addr, 2)
		if err != nil {
			s.stop(true)
			return nil, err
		}
		r.spans.Complete("setup.build_index", laneSetup, t0, t1, "", 0)
		r.spans.Complete("setup.serve_dial", laneSetup, t1, time.Now(), "", 0)
		ix, srv, writer, reader, path = x, s, cls[0], cls[1], p
		return func() error {
			closeAll(cls)
			err := s.stop(true)
			os.Remove(p)
			os.Remove(p + ".wal")
			return err
		}, nil
	})
	if err != nil {
		return err
	}
	r.fact("page_file_bytes", fileSize(path))
	// The kept stack is abandoned below rather than torn down; this
	// covers the error paths in between.
	abandoned := false
	defer func() {
		if !abandoned {
			writer.Close()
			reader.Close()
			srv.stop(true)
		}
	}()

	queries := make([]ann.Point, queryPoolSize)
	for i, idx := range sampleIndices(rng, len(pts), queryPoolSize) {
		queries[i] = apts[idx]
	}
	read := func(c *client.Client, conn, i int) (string, error) {
		nbs, err := c.KNN(context.Background(), "live", queries[i%len(queries)], knnK)
		if err != nil {
			return "", err
		}
		return wellFormed(nbs, knnK), nil
	}
	warm := closedLoop([]*client.Client{reader}, deadline(warmup), read)

	var overheadMS float64
	if r.traced {
		if _, err := take(int(warm.attempted), log); err != nil { // drop the warm-up
			return err
		}
		if overheadMS, _, err = serialPass(r, reader, "live", queries[:serialQueries], log, laneClient); err != nil {
			return err
		}
	}

	// The write phase: a fixed number of batch pairs on the writer
	// connection while the reader runs closed-loop.
	before := ix.Stats()
	pins := startPinSampler(r.traced, []*ann.Index{ix})
	var (
		done        flagStop
		wg          sync.WaitGroup
		writeLat    []time.Duration
		writeErr    error
		ackInserted int
		ackDeleted  int
		writeTime   time.Duration
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.v.Store(true)
		ctx := context.Background()
		start := time.Now()
		defer func() { writeTime = time.Since(start) }()
		for b := 0; b < batches; b++ {
			lo, hi := b*writeBatch, (b+1)*writeBatch
			ids := make([]uint64, 0, writeBatch)
			for i := lo; i < hi; i++ {
				ids = append(ids, insertIDBase+uint64(i))
			}
			t0 := time.Now()
			if _, err := writer.Insert(ctx, "live", ids, inserts[lo:hi]); err != nil {
				writeErr = fmt.Errorf("insert batch %d: %w", b, err)
				return
			}
			writeLat = append(writeLat, time.Since(t0))
			ackInserted = hi
			delIDs := make([]uint64, 0, writeBatch)
			delPts := make([]ann.Point, 0, writeBatch)
			for _, d := range deletes[lo:hi] {
				delIDs = append(delIDs, uint64(d))
				delPts = append(delPts, apts[d])
			}
			t0 = time.Now()
			found, _, err := writer.Delete(ctx, "live", delIDs, delPts)
			if err != nil {
				writeErr = fmt.Errorf("delete batch %d: %w", b, err)
				return
			}
			if found != writeBatch {
				writeErr = fmt.Errorf("delete batch %d found %d of %d points", b, found, writeBatch)
				return
			}
			writeLat = append(writeLat, time.Since(t0))
			ackDeleted = hi
		}
	}()
	st := closedLoop([]*client.Client{reader}, done.stop, read)
	wg.Wait()
	pinsMax := pins.stop()
	after := ix.Stats()
	r.attempted = warm.attempted + st.attempted + int64(2*batches)
	r.failed = warm.failed + st.failed
	if writeErr != nil {
		r.failed++
	}
	r.check("writemix.reads", warm.wrong+st.wrong == 0 && warm.failed+st.failed == 0, "%d kNN answers beside the writer well-formed%s", len(warm.lat)+len(st.lat), errSuffix(firstOf(warm.firstBad, st.firstBad)))
	r.check("writemix.writes_acked", writeErr == nil, "%d insert + %d delete points acknowledged%s", ackInserted, ackDeleted, errSuffix(errString(writeErr)))

	var serverEntries []server.SlowQuery
	if r.traced {
		es, err := take(int(st.attempted)+len(writeLat)+b2i(writeErr != nil), log)
		if err != nil {
			return err
		}
		serverEntries = es[0]
	}

	// Abandon the index the way a crash would (no Close, so no final
	// checkpoint) and recover it.
	writer.Close()
	reader.Close()
	if err := srv.stop(false); err != nil {
		return err
	}
	abandoned = true
	walBytes := fileSize(path + ".wal")
	diskBytes := fileSize(path) + walBytes
	t0 := time.Now()
	rec, err := ann.OpenIndex(path, ann.IndexConfig{BufferPoolBytes: writePoolBytes})
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	recoverS := time.Since(t0).Seconds()
	defer rec.Close()
	rs := rec.Stats()
	if err := checkRecovered(r, rec, pts, inserts[:ackInserted], deletes[:ackDeleted], queries); err != nil {
		return err
	}

	sort.Slice(writeLat, func(a, b int) bool { return writeLat[a] < writeLat[b] })
	live := len(pts) - ackDeleted + ackInserted
	qps, p50, p99 := st.windowed()
	r.e2e("setup_s", "s", setup, fmt.Sprintf("median of %d: file-backed build with checkpoint + annserve start + dial", setupReps))
	r.e2e("knn_qps", "1/s", qps, fmt.Sprintf("%d reader kNN over %.2fs beside the writer; %s", len(st.lat), st.elapsed.Seconds(), st.windowNote()))
	r.e2e("knn_p50_ms", "ms", p50, st.windowNote())
	r.e2e("knn_p99_ms", "ms", p99, st.windowNote())
	r.e2e("insert_pts_per_s", "1/s", float64(ackInserted)/writeTime.Seconds(), fmt.Sprintf("%d acknowledged points over %.2fs (inserts and deletes alternate)", ackInserted, writeTime.Seconds()))
	r.e2e("write_p50_ms", "ms", percentileMS(writeLat, 0.5), fmt.Sprintf("Insert/Delete batch, n=%d", len(writeLat)))
	r.e2e("write_p99_ms", "ms", percentileMS(writeLat, 0.99), fmt.Sprintf("n=%d", len(writeLat)))
	r.e2e("recover_s", "s", recoverS, fmt.Sprintf("ann.OpenIndex after abandoning the index, %d WAL records replayed", rs.WALReplayed))
	r.e2e("disk_bytes_per_user_byte", "B/B", float64(diskBytes)/float64(live*userBytesPerPoint), fmt.Sprintf("(page file + WAL = %d B) / (%d live points x %d B)", diskBytes, live, userBytesPerPoint))
	r.e2e("failed_frac", "frac", float64(r.failed)/float64(r.attempted), fmt.Sprintf("%d of %d requests", r.failed, r.attempted))
	r.gate("setup_s", setup)
	r.gate("work_per_s", qps)
	r.gate("latency_p50_ms", p50)
	r.gate("latency_p99_ms", p99)
	r.fingerprint["wal.replay_records"] = rs.WALReplayed
	if !r.traced {
		return nil
	}

	userBytes := float64(ackInserted * userBytesPerPoint)
	engineLayersAbsent(r)
	r.layer("nodecache.hit_frac", "frac", frac(float64(after.CacheHits-before.CacheHits), float64(after.CacheHits-before.CacheHits+after.CacheMisses-before.CacheMisses)), "write phase")
	r.layer("nodecache.invalidations", "count", float64(after.CacheInvalidations-before.CacheInvalidations), "write phase")
	hits, misses := float64(after.PoolHits-before.PoolHits), float64(after.PoolMisses-before.PoolMisses)
	r.layer("storage.pool_hit_frac", "frac", frac(hits, hits+misses), fmt.Sprintf("write phase, %d KiB pool", writePoolBytes>>10))
	r.layer("storage.page_reads_per_knn", "count", float64(after.PoolReads-before.PoolReads)/float64(len(st.lat)), "all store page reads in the write phase (writer's included) per reader kNN")
	writes := float64(after.PoolWrites - before.PoolWrites)
	r.layer("storage.page_writes", "count", writes, "dirty-page writebacks in the write phase")
	r.layer("storage.write_bytes_per_user_byte", "B/B", writes*storage.PageSize/userBytes, fmt.Sprintf("page writebacks x %d B / inserted point bytes", storage.PageSize))
	r.layer("wal.records_per_fsync", "count", frac(float64(after.WALRecords-before.WALRecords), float64(after.WALFsyncs-before.WALFsyncs)), "group commit size")
	r.layer("wal.bytes_per_user_byte", "B/B", float64(walBytes)/float64((ackInserted+ackDeleted)*userBytesPerPoint), "WAL file / inserted+deleted point bytes")
	r.layer("wal.replay_records", "count", float64(rs.WALReplayed), "deterministic")
	r.layer("wal.replay_s", "s", float64(rs.WALReplayNs)/1e9, "replay part of recover_s")
	r.layer("ann.build_s", "s", median(buildTimes), fmt.Sprintf("median of %d file-backed BuildIndex calls", len(buildTimes)))
	knnUS, err := replayKNN(rec, pts, r.seed, knnK)
	if err != nil {
		return err
	}
	r.layer("ann.knn_us", "us", knnUS, fmt.Sprintf("median in-process NearestNeighbors(k=%d) on the recovered index", knnK))
	r.layer("ann.snapshot_pins_max", "count", float64(pinsMax), "sampled from Stats() every 2ms")
	serverReport(r, "knn", serverEntries)
	r.layer("client.wire_overhead_ms", "ms", overheadMS, "serial pass before the write phase: client latency - server latency, mean")
	routerAbsent(r)
	r.tracingOverhead()
	return nil
}

// insertPoints draws n new clustered points inside the base data's
// bounding box (an MBRQT's root cell is fixed at build time) with no
// coordinates shared with the base set or each other.
func insertPoints(seed int64, base []geom.Point, n int) []ann.Point {
	bounds := geom.BoundingRect(base)
	seen := make(map[[2]uint64]struct{}, len(base)+n)
	for _, p := range base {
		seen[[2]uint64{math.Float64bits(p[0]), math.Float64bits(p[1])}] = struct{}{}
	}
	out := make([]ann.Point, 0, n)
	for round := int64(1); len(out) < n; round++ {
		for _, p := range datagen.GaussianClusters(seed+round*1_000_003, 2*n, datagen.ScaledBounds(2, 1000), 40, 0.02) {
			k := [2]uint64{math.Float64bits(p[0]), math.Float64bits(p[1])}
			if _, dup := seen[k]; dup || !bounds.Contains(p) {
				continue
			}
			seen[k] = struct{}{}
			out = append(out, ann.Point(p))
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// checkRecovered verifies the reopened index against the acknowledged
// writes: its size, its exact live set (every acknowledged insert present,
// every acknowledged delete absent, nothing else), and sampled kNN answers
// against brute force over that live set.
func checkRecovered(r *run, rec *ann.Index, base []geom.Point, inserted []ann.Point, deleted []int, queries []ann.Point) error {
	live := make(map[uint64]geom.Point, len(base)+len(inserted))
	for i, p := range base {
		live[uint64(i)] = p
	}
	for _, d := range deleted {
		delete(live, uint64(d))
	}
	for i, p := range inserted {
		live[insertIDBase+uint64(i)] = geom.Point(p)
	}
	r.check("writemix.recovered_len", rec.Len() == len(live), "Len %d after reopen, expected %d", rec.Len(), len(live))

	bounds := geom.BoundingRect(base)
	ids, pts, err := rec.RangeSearchWithPoints(ann.Point(bounds.Lo), ann.Point(bounds.Hi))
	if err != nil {
		return err
	}
	bad := ""
	seen := make(map[uint64]bool, len(ids))
	for i, id := range ids {
		want, ok := live[id]
		switch {
		case !ok:
			bad = fmt.Sprintf("id %d present but deleted or never inserted", id)
		case seen[id]:
			bad = fmt.Sprintf("id %d present twice", id)
		case pts[i][0] != want[0] || pts[i][1] != want[1]:
			bad = fmt.Sprintf("id %d has moved", id)
		}
		if bad != "" {
			break
		}
		seen[id] = true
	}
	if bad == "" && len(seen) != len(live) {
		bad = fmt.Sprintf("%d of %d live points found", len(seen), len(live))
	}
	r.check("writemix.recovered_live_set", bad == "", "range scan of the recovered index equals the acknowledged live set (%d points)%s", len(live), errSuffix(bad))

	ds := bruteforce.Dataset{IDs: make([]index.ObjectID, 0, len(live)), Points: make([]geom.Point, 0, len(live))}
	for id, p := range live {
		ds.IDs = append(ds.IDs, index.ObjectID(id))
		ds.Points = append(ds.Points, p)
	}
	qs := make([]geom.Point, oracleQueries)
	for i := range qs {
		qs[i] = geom.Point(queries[i])
	}
	bad = ""
	for i, want := range oracleKNN(ds, qs, knnK) {
		got, err := rec.NearestNeighbors(queries[i], knnK)
		if err != nil {
			return err
		}
		if m := matchOracle(got, want.Neighbors); m != "" {
			bad = fmt.Sprintf("query %d: %s", i, m)
			break
		}
	}
	r.check("writemix.recovered_knn_oracle", bad == "", "%d kNN answers on the recovered index vs brute force over the live set%s", oracleQueries, errSuffix(bad))
	return nil
}

// serialPass sends queries one at a time on c and pairs each with the
// server's access-log entry for it. It returns the mean client-observed
// latency minus the server's own latency, and the mean client-observed
// latency, in milliseconds. Spans go to lane (client) and lane+1
// (server).
func serialPass(r *run, c *client.Client, name string, queries []ann.Point, log *accessLog, lane int64) (overheadMS, clientMS float64, err error) {
	lats := make([]int64, len(queries))
	for i, q := range queries {
		t0 := time.Now()
		if _, err := c.KNN(context.Background(), name, q, knnK); err != nil {
			return 0, 0, fmt.Errorf("serial pass: %w", err)
		}
		t1 := time.Now()
		lats[i] = t1.Sub(t0).Nanoseconds()
		r.spans.Complete("client.knn", lane, t0, t1, "req", int64(i))
	}
	logged, err := take(len(queries), log)
	if err != nil {
		return 0, 0, err
	}
	es := logged[0]
	if len(es) != len(queries) {
		return 0, 0, fmt.Errorf("server logged %d requests for %d", len(es), len(queries))
	}
	var overhead, total float64
	for i, e := range es {
		overhead += float64(lats[i] - e.LatencyNs)
		total += float64(lats[i])
		serverSpan(r.spans, lane+1, e, int64(i))
	}
	n := float64(len(queries))
	return overhead / n / 1e6, total / n / 1e6, nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

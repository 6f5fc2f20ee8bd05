package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"allnn/ann"
	"allnn/ann/client"
	"allnn/internal/geom"
	"allnn/internal/router"
	"allnn/internal/server"
)

// setupReps is how many times each workload builds its stack from the
// generated points; setup_s is the median, and the last build is the one
// measured.
const setupReps = 7

// served is one in-process annserve on a loopback listener.
type served struct {
	srv  *server.Server
	addr string
	done chan error
	log  *accessLog // nil unless the run is traced
}

// serve mounts ix as name on a fresh annserve. A non-nil log receives
// the server's access log.
func serve(name string, ix *ann.Index, cfg server.Config, log *accessLog) (*served, error) {
	if log != nil {
		cfg.AccessLog = log
	}
	srv := server.New(cfg)
	if err := srv.Catalog().Add(name, ix); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{srv: srv, addr: ln.Addr().String(), done: make(chan error, 1), log: log}
	go func() { s.done <- srv.Serve(ln) }()
	return s, nil
}

// stop drains the server and waits for Serve to return. closeIndexes
// also closes the catalog's indexes; a write-mix run passes false to
// abandon its index the way a crash would.
func (s *served) stop(closeIndexes bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	if closeIndexes {
		if cerr := s.srv.Catalog().CloseAll(); err == nil {
			err = cerr
		}
	}
	return err
}

// routed is an in-process annrouter on a loopback listener.
type routed struct {
	rt   *router.Router
	addr string
	done chan error
}

func serveRouter(cfg router.Config, m *router.MapFile) (*routed, error) {
	rt, err := router.New(cfg, m)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &routed{rt: rt, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { r.done <- rt.Serve(ln) }()
	return r, nil
}

func (r *routed) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.rt.Shutdown(ctx)
	<-r.done
	return err
}

// dialAll opens n client connections to addr.
func dialAll(addr string, n int) ([]*client.Client, error) {
	cls := make([]*client.Client, 0, n)
	for i := 0; i < n; i++ {
		c, err := client.Dial(addr)
		if err != nil {
			closeAll(cls)
			return nil, err
		}
		cls = append(cls, c)
	}
	return cls, nil
}

func closeAll(cls []*client.Client) {
	for _, c := range cls {
		c.Close()
	}
}

// timedSetups runs build setupReps times, tearing down every stack but
// the last, and returns the median build time and the kept stack's
// teardown. The heap is collected between builds so each starts from
// the same state.
func timedSetups(build func() (teardown func() error, err error)) (float64, func() error, error) {
	var times []float64
	var keep func() error
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		debug.FreeOSMemory()
		start := time.Now()
		td, err := build()
		if err != nil {
			return 0, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupReps-1 {
			if err := td(); err != nil {
				return 0, nil, err
			}
			continue
		}
		keep = td
	}
	return median(times), keep, nil
}

// accessLog collects an annserve access log (one JSON line per finished
// request) in memory; it is parsed after the measured phase.
type accessLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *accessLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *accessLog) lines() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return bytes.Count(l.buf.Bytes(), []byte{'\n'})
}

// take waits until the logs hold at least n entries between them, then
// parses and clears each. annserve writes a request's entry after its
// reply, so a client can see the reply before the entry exists.
func take(n int, logs ...*accessLog) ([][]server.SlowQuery, error) {
	for give := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		have := 0
		for _, l := range logs {
			have += l.lines()
		}
		if have >= n {
			break
		}
		if time.Now().After(give) {
			return nil, fmt.Errorf("access logs hold %d entries, want %d", have, n)
		}
	}
	out := make([][]server.SlowQuery, len(logs))
	for i, l := range logs {
		es, err := l.entries()
		if err != nil {
			return nil, err
		}
		out[i] = es
	}
	return out, nil
}

// entries parses and clears the log.
func (l *accessLog) entries() ([]server.SlowQuery, error) {
	l.mu.Lock()
	data := append([]byte(nil), l.buf.Bytes()...)
	l.buf.Reset()
	l.mu.Unlock()
	var out []server.SlowQuery
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var e server.SlowQuery
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("access log: %w", err)
		}
		out = append(out, e)
	}
	return out, nil
}

// interval is a request's server-side [start, end] from its access-log
// entry, in Unix nanoseconds.
func interval(e server.SlowQuery) (int64, int64) {
	end := e.Time.UnixNano()
	return end - e.LatencyNs, end
}

// loopStats is what a closed loop measured.
type loopStats struct {
	lat       []time.Duration // successful requests, sorted
	done      []time.Duration // each successful request's completion, since the loop began
	byDone    []time.Duration // latencies in the order of done
	attempted int64
	failed    int64
	wrong     int64 // answers the per-request check rejected
	firstBad  string
	elapsed   time.Duration
}

// loopWindow is the length of the sub-windows a closed loop's figures
// are taken over.
const loopWindow = time.Second

// windowed returns per-window throughput and latency percentiles, taken
// from the quieter quarter of the whole loopWindow windows: the upper
// quartile of throughput and the lower quartile of each percentile. On a
// shared host other tenants' load (CPU steal) only ever slows a window,
// and this latency-bound loop loses far more throughput than the share
// stolen, so the median window would track the neighbours' load rather
// than the program. A loop shorter than two windows is taken as one.
func (s *loopStats) windowed() (qps, p50, p99 float64) {
	n := int(s.elapsed / loopWindow)
	if n < 2 {
		return float64(len(s.lat)) / s.elapsed.Seconds(), percentileMS(s.lat, 0.5), percentileMS(s.lat, 0.99)
	}
	buckets := make([][]time.Duration, n)
	for i, d := range s.done {
		if w := int(d / loopWindow); w < n {
			buckets[w] = append(buckets[w], s.byDone[i])
		}
	}
	var qs, a, b []float64
	for _, lat := range buckets {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		qs = append(qs, float64(len(lat))/loopWindow.Seconds())
		a = append(a, percentileMS(lat, 0.5))
		b = append(b, percentileMS(lat, 0.99))
	}
	return quantile(qs, 0.75), quantile(a, 0.25), quantile(b, 0.25)
}

// windowNote describes how windowed() took its figures.
func (s *loopStats) windowNote() string {
	return fmt.Sprintf("n=%d, quieter quartile of %d windows of %v", len(s.lat), max(1, int(s.elapsed/loopWindow)), loopWindow)
}

// closedLoop drives one goroutine per client, each sending its next
// request only after the previous reply, until stop reports true. req
// issues request i on client c and returns an error for an error reply
// and a non-empty string for a wrong answer.
func closedLoop(cls []*client.Client, stop func() bool, req func(c *client.Client, conn, i int) (string, error)) *loopStats {
	type part struct {
		lat, done                []time.Duration
		attempted, failed, wrong int64
		firstBad                 string
	}
	parts := make([]part, len(cls))
	var wg sync.WaitGroup
	start := time.Now()
	for ci, c := range cls {
		wg.Add(1)
		go func(ci int, c *client.Client) {
			defer wg.Done()
			p := &parts[ci]
			for i := 0; !stop(); i++ {
				p.attempted++
				t0 := time.Now()
				bad, err := req(c, ci, i)
				t1 := time.Now()
				switch {
				case err != nil:
					p.failed++
					if p.firstBad == "" {
						p.firstBad = err.Error()
					}
				case bad != "":
					p.wrong++
					if p.firstBad == "" {
						p.firstBad = bad
					}
				default:
					p.lat = append(p.lat, t1.Sub(t0))
					p.done = append(p.done, t1.Sub(start))
				}
			}
		}(ci, c)
	}
	wg.Wait()
	st := &loopStats{elapsed: time.Since(start)}
	for _, p := range parts {
		st.byDone = append(st.byDone, p.lat...)
		st.done = append(st.done, p.done...)
		st.attempted += p.attempted
		st.failed += p.failed
		st.wrong += p.wrong
		if st.firstBad == "" {
			st.firstBad = p.firstBad
		}
	}
	st.lat = append([]time.Duration(nil), st.byDone...)
	sort.Slice(st.lat, func(a, b int) bool { return st.lat[a] < st.lat[b] })
	return st
}

// firstOf returns the first non-empty message.
func firstOf(msgs ...string) string {
	for _, m := range msgs {
		if m != "" {
			return m
		}
	}
	return ""
}

// deadline returns a stop function for a closed loop that ends after d.
func deadline(d time.Duration) func() bool {
	end := time.Now().Add(d)
	return func() bool { return !time.Now().Before(end) }
}

// flagStop is a closed loop's stop condition, set by another goroutine.
type flagStop struct{ v atomic.Bool }

func (f *flagStop) stop() bool { return f.v.Load() }

// hasher chains values into an order-sensitive FNV-64a hash.
type hasher struct{ h uint64 }

func (h *hasher) add(vs ...uint64) {
	if h.h == 0 {
		h.h = 14695981039346656037
	}
	var word [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(word[:], v)
		for _, b := range word {
			h.h ^= uint64(b)
			h.h *= 1099511628211
		}
	}
}

// dedupe drops exact coordinate duplicates, keeping first occurrences.
// The cluster generator clamps samples onto the bounds corners; twins at
// distance 0 make neighbor tie order engine-defined, which would defeat
// byte-level answer checks.
func dedupe(pts []geom.Point) []geom.Point {
	type key [2]uint64
	seen := make(map[key]struct{}, len(pts))
	out := pts[:0]
	for _, p := range pts {
		k := key{math.Float64bits(p[0]), math.Float64bits(p[1])}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, p)
	}
	return out
}

func toAnn(pts []geom.Point) []ann.Point {
	out := make([]ann.Point, len(pts))
	for i, p := range pts {
		out[i] = ann.Point(p)
	}
	return out
}

// frac returns num/den, or 0 when den is 0 (a layer the workload does
// not exercise).
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// sampleIndices returns n distinct indices in [0, total) chosen by a
// seeded shuffle.
func sampleIndices(rng *rand.Rand, total, n int) []int {
	p := rng.Perm(total)
	if n > total {
		n = total
	}
	return p[:n]
}

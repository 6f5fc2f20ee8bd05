package router

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"allnn/ann/client"
	"allnn/internal/obs"
	"allnn/internal/server"
	"allnn/internal/wire"
)

// Mode selects the router's failure policy when a shard's backend is
// unreachable after retries.
type Mode int

const (
	// Strict fails the whole request fast with SHARD_UNAVAILABLE — the
	// default: no silent data loss.
	Strict Mode = iota
	// Degraded answers with what the live shards produced, marked
	// PARTIAL_RESULT. A degraded reply is the exact answer over the
	// union of the live shards' points.
	Degraded
)

func (m Mode) String() string {
	if m == Degraded {
		return "degraded"
	}
	return "strict"
}

// ParseMode maps "strict"/"degraded" to its Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "strict", "":
		return Strict, nil
	case "degraded":
		return Degraded, nil
	default:
		return 0, fmt.Errorf("router: unknown mode %q (want strict or degraded)", s)
	}
}

// Config parameterises a Router. The zero value is usable (strict
// mode, fan-out bounded at 2×GOMAXPROCS).
type Config struct {
	// Mode is the failure policy for dead shards.
	Mode Mode
	// MaxFanout bounds concurrently outstanding backend RPCs across the
	// whole router (scatter admission). 1 degenerates to serial scatter
	// — useful for debugging and as the parity baseline. Zero selects
	// 2×GOMAXPROCS (minimum 4).
	MaxFanout int
	// Dial tunes backend dialling; the zero value selects
	// client.DialConfig's defaults.
	Dial client.DialConfig
	// BackoffBase and BackoffMax bound the per-backend circuit-breaker
	// cool-off after transport failures (defaults 100ms and 5s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Metrics, when non-nil, receives the router.* metric families.
	Metrics *obs.Registry
	// Logf, when non-nil, receives structured key=value log lines.
	Logf func(format string, args ...any)
}

// Router serves the wire protocol over one or more shard-mapped
// datasets, scatter-gathering each request across the owning backends.
// The transport is its embedded server.Shell (metric family
// "router"); the Router itself is the Shell's Handler.
type Router struct {
	*server.Shell
	cfg      Config
	datasets map[string]*dataset

	// fanout is the scatter admission semaphore: one slot per
	// outstanding backend RPC, router-wide.
	fanout chan struct{}

	// router.* metrics beyond the shell's (nil-safe through the
	// registry).
	shardsContacted *obs.Counter
	shardsPruned    *obs.Counter
	unavailable     *obs.Counter
	partials        *obs.Counter
	mergeStreams    *obs.Histogram
}

// New creates a Router over the given shard maps (one per logical
// dataset). Backends are dialled lazily on first use.
func New(cfg Config, maps ...*MapFile) (*Router, error) {
	if cfg.MaxFanout <= 0 {
		cfg.MaxFanout = 2 * runtime.GOMAXPROCS(0)
		if cfg.MaxFanout < 4 {
			cfg.MaxFanout = 4
		}
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 100 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 5 * time.Second
	}
	r := &Router{
		cfg:      cfg,
		datasets: make(map[string]*dataset),
		fanout:   make(chan struct{}, cfg.MaxFanout),
	}
	for _, m := range maps {
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("router: shard map %q: %w", m.Name, err)
		}
		if _, dup := r.datasets[m.Name]; dup {
			return nil, fmt.Errorf("router: duplicate dataset %q", m.Name)
		}
		ds, err := newDataset(m, cfg)
		if err != nil {
			return nil, fmt.Errorf("router: dataset %q: %w", m.Name, err)
		}
		r.datasets[m.Name] = ds
	}
	r.Shell = server.NewShell("router", []wire.Op{
		wire.OpList, wire.OpShardMap,
		wire.OpKNN, wire.OpBatchKNN, wire.OpRange, wire.OpRangePoints,
		wire.OpJoin, wire.OpWithinDistance,
	}, server.Config{Metrics: cfg.Metrics, Logf: cfg.Logf}, r)

	reg := cfg.Metrics
	r.shardsContacted = reg.Counter("router.shards_contacted")
	r.shardsPruned = reg.Counter("router.shards_pruned")
	r.unavailable = reg.Counter("router.shard_unavailable")
	r.partials = reg.Counter("router.partial_results")
	r.mergeStreams = reg.Histogram("router.merge.streams", obs.ExpBuckets(1, 2, 8))
	return r, nil
}

// Shutdown drains the router's shell — listeners close, new requests
// are refused with SHUTTING_DOWN, in-flight requests finish (or are
// cancelled when ctx expires) — then closes the backend connections.
func (r *Router) Shutdown(ctx context.Context) error {
	err := r.Shell.Shutdown(ctx)
	for _, ds := range r.datasets {
		for _, s := range ds.shards {
			s.backend.close()
		}
	}
	return err
}

// Handle executes one decoded request; it is the Router's Handler
// side.
func (r *Router) Handle(ctx context.Context, hdr wire.RequestHeader, body wire.Message, w *server.ResponseWriter) error {
	err := r.dispatch(ctx, hdr, body, w)
	if wire.IsCode(err, wire.CodeShardUnavailable) {
		r.unavailable.Inc()
	}
	return err
}

// dispatch executes one decoded request. A returned error means no
// terminal frame was written yet.
func (r *Router) dispatch(ctx context.Context, hdr wire.RequestHeader, body wire.Message, w *server.ResponseWriter) error {
	if hdr.Epsilon != 0 {
		return server.BadRequest("the router serves exact queries only (epsilon=%v rejected): shard-local approximation bounds do not compose across a merge", hdr.Epsilon)
	}
	if hdr.WantReport {
		return server.BadRequest("WantReport is not supported on routed requests")
	}

	switch req := body.(type) {
	case *wire.ListReq:
		return r.handleList(hdr, w)
	case *wire.ShardMapReq:
		ds, err := r.dataset(req.Name)
		if err != nil {
			return err
		}
		return w.Send(hdr.ID, wire.KindResult, hdr.Op, &wire.ShardMapReply{Map: ds.wireMap})
	case *wire.KNNReq:
		return r.handleKNN(ctx, hdr, req, w)
	case *wire.BatchKNNReq:
		return r.handleBatchKNN(ctx, hdr, req, w)
	case *wire.RangeReq:
		return r.handleRange(ctx, hdr, req, w)
	case *wire.RangePointsReq:
		return r.handleRangePoints(ctx, hdr, req, w)
	case *wire.WithinReq:
		return r.handleWithin(ctx, hdr, req, w)
	case *wire.JoinReq:
		return r.handleJoin(ctx, hdr, req, w)
	case *wire.OpenReq, *wire.CloseReq:
		return server.BadRequest("the router's datasets are fixed by its shard map; open and close indexes on the shard backends")
	case *wire.InsertReq, *wire.DeleteReq:
		return server.BadRequest("mutations are not routed; write to the owning shard backend directly (the shard map's key ranges determine ownership)")
	case *wire.StatsReq:
		return server.BadRequest("stats are per-backend; query the shard servers directly")
	case *wire.PairsReq:
		return server.BadRequest("closest-pairs is not distributed; run it against a single backend")
	default:
		return server.BadRequest("unhandled request type %T", body)
	}
}

func (r *Router) handleList(hdr wire.RequestHeader, w *server.ResponseWriter) error {
	names := make([]string, 0, len(r.datasets))
	for name := range r.datasets {
		names = append(names, name)
	}
	sort.Strings(names)
	infos := make([]wire.IndexInfo, len(names))
	for i, name := range names {
		ds := r.datasets[name]
		infos[i] = wire.IndexInfo{Name: name, Points: ds.points(), Dim: uint32(ds.dim)}
	}
	return w.Send(hdr.ID, wire.KindResult, hdr.Op, &wire.ListReply{Indexes: infos})
}

// dataset resolves a logical dataset name.
func (r *Router) dataset(name string) (*dataset, error) {
	ds, ok := r.datasets[name]
	if !ok {
		return nil, &wire.Error{Code: wire.CodeNotFound, Msg: fmt.Sprintf("router: no dataset %q in the shard map", name)}
	}
	return ds, nil
}

// --- scatter-gather plumbing ------------------------------------------------

// gather tracks one request's scatter across shards: which shards
// failed (for degraded replies), plus the strict-mode abort.
type gather struct {
	mode Mode
	mu   sync.Mutex
	// missing names the shards that were unavailable (degraded mode).
	missing []string
	// failed is the first hard failure (strict-mode shardError, or any
	// non-shard error in either mode).
	failed error
}

// shardDown records one unavailable shard, returning false when the
// gather must abort (strict mode).
func (g *gather) shardDown(name string, err error) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.mode == Degraded {
		g.missing = append(g.missing, name)
		return true
	}
	if g.failed == nil {
		g.failed = &wire.Error{Code: wire.CodeShardUnavailable, Msg: err.Error()}
	}
	return false
}

// hardFail records a non-shard failure (always aborts).
func (g *gather) hardFail(err error) {
	g.mu.Lock()
	if g.failed == nil {
		g.failed = err
	}
	g.mu.Unlock()
}

// err returns the recorded abort error, if any.
func (g *gather) err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.failed
}

// isMissing reports whether a shard already failed this gather —
// multi-phase requests skip work destined for a shard that is known
// dead.
func (g *gather) isMissing(name string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, m := range g.missing {
		if m == name {
			return true
		}
	}
	return false
}

// partial returns the PartialInfo block for a degraded gather (nil when
// every shard answered). Shard names are deduplicated (a shard can fail
// in several phases) and sorted for determinism.
func (g *gather) partial() *wire.PartialInfo {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.missing) == 0 {
		return nil
	}
	seen := make(map[string]bool, len(g.missing))
	var missing []string
	for _, m := range g.missing {
		if !seen[m] {
			seen[m] = true
			missing = append(missing, m)
		}
	}
	sort.Strings(missing)
	return &wire.PartialInfo{Missing: missing}
}

// newGather starts a gather under the router's failure mode.
func (r *Router) newGather() *gather { return &gather{mode: r.cfg.Mode} }

// scatterN runs fn once per task index, bounded by the router-wide
// fan-out semaphore (MaxFanout=1 degenerates to serial execution in
// index order). A shardError from fn (which names its shard) is routed
// through the gather's failure policy; any other error aborts.
// scatterN returns the gather's abort error, if any. fn runs
// concurrently — it must synchronise its own result writes.
func (r *Router) scatterN(ctx context.Context, g *gather, n int, fn func(int) error) error {
	var wg sync.WaitGroup
	abort := make(chan struct{})
	var abortOnce sync.Once
	doAbort := func() { abortOnce.Do(func() { close(abort) }) }
	for i := 0; i < n; i++ {
		stop := false
		select {
		case r.fanout <- struct{}{}:
		case <-abort:
			// A strict-mode failure already decided the request; skip the
			// remaining legs.
			stop = true
		case <-ctx.Done():
			g.hardFail(ctx.Err())
			stop = true
		}
		if stop {
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-r.fanout }()
			err := fn(i)
			if err == nil {
				return
			}
			var se *shardError
			if errors.As(err, &se) {
				if !g.shardDown(se.shard, err) {
					doAbort()
				}
				return
			}
			g.hardFail(err)
			doAbort()
		}(i)
	}
	wg.Wait()
	return g.err()
}

// scatter runs fn once per selected shard via scatterN, recording the
// contacted counter and per-shard latency histogram.
func (r *Router) scatter(ctx context.Context, g *gather, shards []*shard, fn func(*shard) error) error {
	return r.scatterN(ctx, g, len(shards), func(i int) error {
		s := shards[i]
		r.shardsContacted.Inc()
		start := time.Now()
		err := fn(s)
		if r.cfg.Metrics != nil {
			r.cfg.Metrics.Histogram("router.shard."+s.name+".latency_ns", obs.LatencyBuckets()).
				Observe(float64(time.Since(start).Nanoseconds()))
		}
		return err
	})
}

// prune records n pruned shards.
func (r *Router) prune(n int) {
	if n > 0 {
		r.shardsPruned.Add(uint64(n))
	}
}

// finishPartial bumps the partial-results counter when a degraded
// gather lost shards.
func (r *Router) finishPartial(p *wire.PartialInfo) *wire.PartialInfo {
	if p != nil {
		r.partials.Inc()
	}
	return p
}

// Package server implements annserve: a TCP query service over a
// catalog of ann indexes. It speaks the internal/wire protocol and
// reuses the engine's production plumbing end to end — per-request
// context cancellation, obs metrics and trace spans, checksummed
// storage — adding the serving-side concerns: admission control,
// per-connection panic isolation, and graceful drain. The transport
// half is the Shell, which annrouter reuses with its own Handler.
package server

import (
	"io"
	"runtime"
	"time"

	"allnn/internal/obs"
	"allnn/internal/wire"
)

// Config parameterises a Server. The zero value is usable.
type Config struct {
	// MaxInFlight bounds concurrently executing queries (not catalog
	// ops). Zero selects GOMAXPROCS.
	MaxInFlight int
	// MaxQueue bounds queries waiting for an execution slot; beyond it
	// requests fail fast with SERVER_BUSY. Zero selects 4×MaxInFlight.
	// Negative disables queueing entirely.
	MaxQueue int
	// IndexBufferBytes is the buffer-pool budget for indexes opened via
	// the catalog OpOpen request (see ann.IndexConfig.BufferPoolBytes).
	IndexBufferBytes int
	// Metrics, when non-nil, receives the server.* metric families and
	// the engine.* counters of served joins.
	Metrics *obs.Registry
	// Tracer, when non-nil, receives one span per request on the
	// server lane.
	Tracer *obs.Tracer
	// Logf, when non-nil, receives the server's structured key=value
	// log lines (see Shell.log) — one line per call, no trailing
	// newline expected from the sink.
	Logf func(format string, args ...any)
	// LogLevel is the minimum severity Logf receives. The zero value
	// (LevelDebug) emits everything.
	LogLevel LogLevel
	// SlowThreshold, when positive, is the latency at or above which a
	// finished request enters the slow-query ring (served at
	// /debug/slow) and is logged at warn level. Zero disables the ring.
	SlowThreshold time.Duration
	// SlowLogSize is the slow-query ring capacity (default 128).
	SlowLogSize int
	// AccessLog, when non-nil, receives one JSON line per finished
	// request (the SlowQuery shape). Writes are serialised by the
	// server.
	AccessLog io.Writer
}

// Server owns a catalog and serves the wire protocol over any number
// of listeners (in practice one). The transport — connections, drain,
// request tracking, logging — is its embedded Shell; the Server itself
// is the Shell's Handler, dispatching requests against the catalog.
type Server struct {
	*Shell
	cfg     Config
	catalog *Catalog
	admit   *admission

	// rejected counts requests refused by a full admission queue.
	rejected *obs.Counter

	// testHook, when set (tests only), runs at the top of Handle.
	testHook func(wire.RequestHeader)
}

// New creates a Server with an empty catalog.
func New(cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 4 * cfg.MaxInFlight
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	s := &Server{
		cfg:     cfg,
		catalog: NewCatalog(),
		admit:   newAdmission(cfg.MaxInFlight, cfg.MaxQueue),
	}
	s.Shell = NewShell("server", []wire.Op{
		wire.OpOpen, wire.OpClose, wire.OpList, wire.OpStats,
		wire.OpKNN, wire.OpBatchKNN, wire.OpRange, wire.OpRangePoints,
		wire.OpJoin, wire.OpWithinDistance, wire.OpClosestPairs,
	}, cfg, s)

	reg := cfg.Metrics
	s.rejected = reg.Counter("server.rejected")
	reg.GaugeFunc("server.inflight", s.admit.inFlight)
	reg.GaugeFunc("server.queue_depth", s.admit.queueDepth)
	return s
}

// Catalog returns the server's index catalog, for preloading indexes
// in-process before (or while) serving.
func (s *Server) Catalog() *Catalog { return s.catalog }

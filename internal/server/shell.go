package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"allnn/ann"
	"allnn/internal/obs"
	"allnn/internal/wire"
)

// tidServer is the trace lane for request spans, above the engine's
// worker (1..) and storage (1000..) lanes.
const tidServer = 2000

// handshakeTimeout bounds how long a fresh connection may take to send
// its preamble before the shell gives up on it.
const handshakeTimeout = 10 * time.Second

// Handler executes decoded requests for a Shell. Handle writes the
// response frame(s) through w; a returned error means no terminal
// frame was written yet, and the shell turns it into KindError. ctx
// carries the request deadline and is cancelled by a forced shutdown.
type Handler interface {
	Handle(ctx context.Context, hdr wire.RequestHeader, body wire.Message, w *ResponseWriter) error
}

// Shell is the wire-protocol transport shared by annserve and
// annrouter. It owns listeners, connections and the drain state; the
// handshake; per-connection and per-request panic recovery; request
// contexts (deadline, forced-shutdown cancel); request tracking behind
// /debug/requests and /debug/slow, latency histograms, error counters,
// the access log and leveled logging; and the response frame writer.
// What a request means is the Handler's business.
type Shell struct {
	family  string // metric, span and message prefix ("server", "router")
	cfg     Config // only the transport fields are read; see NewShell
	handler Handler

	// baseCtx is the parent of every request context; cancelling it
	// (forced shutdown) aborts in-flight requests.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	mu            sync.Mutex
	listeners     map[net.Listener]struct{}
	conns         map[net.Conn]struct{}
	activeReqs    int
	draining      bool
	drained       chan struct{}
	drainedClosed bool

	connWG sync.WaitGroup

	// In-flight request table behind /debug/requests, keyed by a
	// shell-wide sequence number (its own mutex: debug scrapes must not
	// contend with the connection/drain lock).
	inflightMu sync.Mutex
	inflight   map[uint64]*reqCtx
	reqSeq     atomic.Uint64

	// slow is the bounded ring behind /debug/slow.
	slow *slowLog

	// accessMu serialises JSONL access-log writes.
	accessMu sync.Mutex

	// <family>.* metrics (nil-safe: a nil Registry hands out working
	// no-op instruments).
	requests  *obs.Counter
	errors    *obs.Counter
	bytesIn   *obs.Counter
	bytesOut  *obs.Counter
	latencies map[wire.Op]*obs.Histogram
}

// NewShell creates a shell that serves h. family prefixes its metrics
// (<family>.requests, <family>.<op>.latency_ns, ...), spans and
// messages; ops lists the operations whose latency histograms are
// registered up front. The shell reads cfg's transport fields —
// Metrics, Tracer, Logf, LogLevel, SlowThreshold, SlowLogSize and
// AccessLog — and ignores the catalog's (admission, buffer pool).
func NewShell(family string, ops []wire.Op, cfg Config, h Handler) *Shell {
	s := &Shell{
		family:    family,
		cfg:       cfg,
		handler:   h,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		drained:   make(chan struct{}),
		inflight:  make(map[uint64]*reqCtx),
		slow:      newSlowLog(cfg.SlowLogSize),
	}
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())

	reg := cfg.Metrics
	s.requests = reg.Counter(family + ".requests")
	s.errors = reg.Counter(family + ".errors")
	s.bytesIn = reg.Counter(family + ".bytes_in")
	s.bytesOut = reg.Counter(family + ".bytes_out")
	reg.GaugeFunc(family+".connections", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.conns))
	})
	s.latencies = make(map[wire.Op]*obs.Histogram, len(ops))
	for _, op := range ops {
		s.latencies[op] = reg.Histogram(family+"."+op.String()+".latency_ns", obs.LatencyBuckets())
	}
	return s
}

// Serve accepts connections on ln until the listener fails or the
// shell drains. It returns nil on a drain-initiated stop.
func (s *Shell) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return errors.New(s.family + ": already shut down")
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
		ln.Close()
	}()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.connWG.Add(1)
		go s.handleConn(conn)
	}
}

// handleConn owns one connection: handshake, then a sequential
// request/response loop. A panic below it poisons only this
// connection.
func (s *Shell) handleConn(conn net.Conn) {
	remote := conn.RemoteAddr().String()
	defer s.connWG.Done()
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 4096)
			buf = buf[:runtime.Stack(buf, false)]
			s.log(LevelError, "connection panic", "conn", remote, "panic", r, "stack", string(buf))
		}
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	if err := wire.ReadHandshake(conn); err != nil {
		s.log(LevelWarn, "handshake failed", "conn", remote, "err", err)
		return
	}
	conn.SetReadDeadline(time.Time{})

	br := bufio.NewReader(conn)
	w := &ResponseWriter{bw: bufio.NewWriter(conn), out: s.bytesOut}
	for {
		payload, err := wire.ReadFrame(br)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.log(LevelWarn, "read failed", "conn", remote, "err", err)
			}
			return
		}
		s.bytesIn.Add(uint64(4 + len(payload)))
		if !s.serveRequest(w, remote, payload) {
			return
		}
	}
}

// serveRequest decodes one request, hands it to the handler, and
// writes the error frame if the handler failed. It reports whether the
// connection is still usable.
func (s *Shell) serveRequest(w *ResponseWriter, remote string, payload []byte) bool {
	hdr, body, err := wire.DecodeRequest(payload)
	if err != nil {
		// The header might not have parsed, but its fixed-width prefix
		// decodes something for the id either way; echoing it back is
		// best-effort before giving up on the stream's framing.
		s.log(LevelWarn, "bad request frame", "conn", remote, "req", hdr.ID, "err", err)
		w.SendError(hdr.ID, hdr.Op, &wire.Error{Code: wire.CodeBadRequest, Msg: err.Error()})
		return false
	}

	if !s.beginRequest() {
		w.SendError(hdr.ID, hdr.Op, &wire.Error{Code: wire.CodeShuttingDown, Msg: s.family + " is draining"})
		return true
	}
	defer s.endRequest()

	rc := &reqCtx{
		id:         hdr.ID,
		op:         hdr.Op,
		index:      requestIndexLabel(body),
		traceID:    hdr.TraceID,
		remote:     remote,
		start:      time.Now(),
		wantReport: hdr.WantReport,
		bytesIn:    uint64(4 + len(payload)),
	}
	s.trackRequest(rc)
	w.req = rc
	var code string // terminal error code name; empty on success
	defer func() {
		w.req = nil
		s.untrackRequest(rc)
		s.finishRequest(rc, code)
	}()

	s.requests.Inc()
	var span obs.Span
	if s.cfg.Tracer != nil {
		span = s.cfg.Tracer.Begin(s.family+"."+hdr.Op.String(), tidServer)
		span.Arg("req", int64(hdr.ID))
		defer span.End()
	}

	ctx := s.baseCtx
	if hdr.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, hdr.Timeout)
		defer cancel()
	}

	if err := s.handle(ctx, rc, hdr, body, w); err != nil {
		s.errors.Inc()
		we := s.toWireError(err)
		code = we.Code.String()
		s.cfg.Metrics.Counter(s.family + ".errors." + strings.ToLower(code)).Inc()
		s.log(LevelInfo, "request failed",
			"req", rc.id, "trace", rc.traceID, "op", rc.op, "index", rc.index,
			"conn", remote, "code", code, "err", we.Msg)
		w.SendError(hdr.ID, hdr.Op, we)
	}
	return true
}

// handle runs the handler on one request. A panicking handler must not
// take the whole connection down: it reports INTERNAL and the
// connection keeps serving.
func (s *Shell) handle(ctx context.Context, rc *reqCtx, hdr wire.RequestHeader, body wire.Message, w *ResponseWriter) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.log(LevelError, "request panic",
				"req", rc.id, "trace", rc.traceID, "op", rc.op, "index", rc.index,
				"panic", r)
			err = &wire.Error{Code: wire.CodeInternal, Msg: "internal error (recovered panic)"}
		}
	}()
	rc.stage.Store(stageRunning)
	return s.handler.Handle(ctx, hdr, body, w)
}

// finishRequest records a finished request into the per-op and
// per-op×per-index latency histograms, the slow-query ring, and the
// access log. code is the terminal error code name, empty on success.
func (s *Shell) finishRequest(rc *reqCtx, code string) {
	now := time.Now()
	lat := now.Sub(rc.start)
	s.latencies[rc.op].Observe(float64(lat.Nanoseconds()))
	if rc.index != "" && s.cfg.Metrics != nil {
		s.cfg.Metrics.
			Histogram(s.family+"."+rc.op.String()+"."+rc.index+".latency_ns", obs.LatencyBuckets()).
			Observe(float64(lat.Nanoseconds()))
	}
	slow := s.cfg.SlowThreshold > 0 && lat >= s.cfg.SlowThreshold
	if slow {
		s.slow.add(rc.record(now, code))
		s.log(LevelWarn, "slow query",
			"req", rc.id, "trace", rc.traceID, "op", rc.op, "index", rc.index,
			"latency_ns", lat.Nanoseconds(), "admission_wait_ns", rc.admissionWaitNs.Load(),
			"engine_ns", rc.engineNs, "flush_ns", rc.flushNs, "code", code)
	}
	if s.cfg.AccessLog != nil {
		line, err := json.Marshal(rc.record(now, code))
		if err == nil {
			s.accessMu.Lock()
			_, err = s.cfg.AccessLog.Write(append(line, '\n'))
			s.accessMu.Unlock()
		}
		if err != nil {
			s.log(LevelWarn, "access log write failed", "req", rc.id, "err", err)
		}
	}
}

// beginRequest registers an executing request unless the shell is
// draining.
func (s *Shell) beginRequest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.activeReqs++
	return true
}

func (s *Shell) endRequest() {
	s.mu.Lock()
	s.activeReqs--
	if s.draining && s.activeReqs == 0 && !s.drainedClosed {
		s.drainedClosed = true
		close(s.drained)
	}
	s.mu.Unlock()
}

// Shutdown gracefully drains the shell: listeners stop accepting, new
// requests are refused with SHUTTING_DOWN, and in-flight requests run
// to completion. If ctx expires first, the remaining requests are
// cancelled through their request contexts and Shutdown returns
// ctx.Err() once connections are torn down.
func (s *Shell) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New(s.family + ": shutdown already in progress")
	}
	s.draining = true
	if s.activeReqs == 0 && !s.drainedClosed {
		s.drainedClosed = true
		close(s.drained)
	}
	for ln := range s.listeners {
		ln.Close()
	}
	s.mu.Unlock()

	var err error
	select {
	case <-s.drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancelBase() // abort in-flight requests
		<-s.drained    // cancellation unblocks them promptly
	}

	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	s.cancelBase()
	return err
}

// ResponseWriter serialises response frames for one connection,
// reusing one encode buffer across frames. req points at the request
// currently being served so frame bytes and flush time are attributed
// per request as well as to the shell-wide counters.
type ResponseWriter struct {
	bw  *bufio.Writer
	out *obs.Counter
	buf []byte
	req *reqCtx
}

// Send encodes and writes one response frame and flushes it to the
// socket (streamed frames must reach the client as they are produced).
func (w *ResponseWriter) Send(id uint64, kind wire.ResponseKind, op wire.Op, body wire.Message) error {
	start := time.Now()
	payload, err := wire.EncodeResponse(id, kind, op, body, w.buf)
	if err != nil {
		return err
	}
	w.buf = payload // keep the grown storage for the next frame
	if err := wire.WriteFrame(w.bw, payload); err != nil {
		return err
	}
	w.out.Add(uint64(4 + len(payload)))
	err = w.bw.Flush()
	if w.req != nil {
		w.req.bytesOut += uint64(4 + len(payload))
		w.req.flushNs += time.Since(start).Nanoseconds()
	}
	return err
}

// SendError writes a KindError frame, best-effort.
func (w *ResponseWriter) SendError(id uint64, op wire.Op, we *wire.Error) {
	body := &wire.ErrorReply{Code: we.Code, Msg: we.Msg}
	payload, err := wire.EncodeResponse(id, wire.KindError, op, body, w.buf)
	if err != nil {
		// The op may be unknown (undecodable request); force a generic
		// envelope the client can still map by request id.
		payload, err = wire.EncodeResponse(id, wire.KindError, wire.OpList, body, w.buf)
		if err != nil {
			return
		}
	}
	w.buf = payload
	if wire.WriteFrame(w.bw, payload) == nil {
		w.out.Add(uint64(4 + len(payload)))
		if w.req != nil {
			w.req.bytesOut += uint64(4 + len(payload))
		}
		w.bw.Flush()
	}
}

// toWireError maps an internal failure to its protocol error class.
func (s *Shell) toWireError(err error) *wire.Error {
	var we *wire.Error
	switch {
	case errors.As(err, &we):
		return we
	case errors.Is(err, ErrIndexNotFound):
		return &wire.Error{Code: wire.CodeNotFound, Msg: err.Error()}
	case errors.Is(err, ann.ErrInvalidConfig):
		return &wire.Error{Code: wire.CodeBadRequest, Msg: err.Error()}
	case errors.Is(err, ann.ErrWriteFailed):
		return &wire.Error{Code: wire.CodeWriteFailed, Msg: err.Error()}
	case errors.Is(err, ann.ErrCorruptPage):
		return &wire.Error{Code: wire.CodeCorruptIndex, Msg: err.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		return &wire.Error{Code: wire.CodeDeadlineExceeded, Msg: "request deadline exceeded"}
	case errors.Is(err, context.Canceled):
		return &wire.Error{Code: wire.CodeShuttingDown, Msg: "request cancelled by " + s.family + " shutdown"}
	default:
		return &wire.Error{Code: wire.CodeInternal, Msg: err.Error()}
	}
}

// BadRequest builds a BAD_REQUEST error.
func BadRequest(format string, args ...any) *wire.Error {
	return &wire.Error{Code: wire.CodeBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// Daemon is what ServeUntilSignal drives: a Server, or anything built
// on a Shell.
type Daemon interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
}

// ServeUntilSignal serves ln on d until Serve fails or SIGTERM/SIGINT
// arrives; a signal drains d, cancelling whatever is still in flight
// after drainTimeout. Progress lines go to stderr under the daemon's
// name. It returns Serve's error.
func ServeUntilSignal(name string, stderr io.Writer, d Daemon, ln net.Listener, drainTimeout time.Duration) error {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigc)

	serveDone := make(chan error, 1)
	go func() { serveDone <- d.Serve(ln) }()

	select {
	case sig := <-sigc:
		fmt.Fprintf(stderr, "%s: %v: draining (timeout %v)\n", name, sig, drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			fmt.Fprintf(stderr, "%s: drain: %v (in-flight queries were cancelled)\n", name, err)
		} else {
			fmt.Fprintf(stderr, "%s: drained cleanly\n", name)
		}
		return <-serveDone
	case err := <-serveDone:
		return err
	}
}

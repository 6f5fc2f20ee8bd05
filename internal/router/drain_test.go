package router

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"allnn/ann"
	"allnn/ann/client"
	"allnn/internal/curve"
	"allnn/internal/obs"
	"allnn/internal/wire"
)

// gatedProxy forwards TCP between the router and one backend. While
// held, the backend's replies stall in the proxy, so a routed request
// that needs that shard stays in flight for as long as the test wants.
type gatedProxy struct {
	addr string
	gate sync.RWMutex
}

func startGatedProxy(t *testing.T, backend string) *gatedProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	p := &gatedProxy{addr: ln.Addr().String()}
	go func() {
		for {
			front, err := ln.Accept()
			if err != nil {
				return
			}
			back, err := net.Dial("tcp", backend)
			if err != nil {
				front.Close()
				continue
			}
			go p.pipe(back, front, false)
			go p.pipe(front, back, true)
		}
	}()
	return p
}

// pipe copies src to dst until either side fails, then closes both.
// Gated copies wait for the gate before every write.
func (p *gatedProxy) pipe(dst, src net.Conn, gated bool) {
	defer dst.Close()
	defer src.Close()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if gated {
				p.gate.RLock()
			}
			_, werr := dst.Write(buf[:n])
			if gated {
				p.gate.RUnlock()
			}
			if werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

func (p *gatedProxy) hold()    { p.gate.Lock() }
func (p *gatedProxy) release() { p.gate.Unlock() }

// TestRouterGracefulDrain pins the router's drain contract: a routed
// self-join that is mid-flight when Shutdown starts runs to its END
// with the single-node row count, a request sent on an established
// connection after the drain began is refused with SHUTTING_DOWN, and
// Shutdown returns nil and then leaves every backend client closed.
func TestRouterGracefulDrain(t *testing.T) {
	pts := uniformPoints(13, 1500)
	part, err := curve.Partition(pts, 2, curve.Hilbert)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, len(part.Shards))
	for i, s := range part.Shards {
		shardPts := make([]ann.Point, len(s.Points))
		for j, idx := range s.Points {
			shardPts[j] = ann.Point(pts[idx])
		}
		addrs[i] = startBackend(t, fmt.Sprintf("pts-%d", i), shardPts).addr
	}
	proxy := startGatedProxy(t, addrs[1])
	addrs[1] = proxy.addr

	reg := obs.NewRegistry()
	rt, err := New(Config{Metrics: reg}, MapFromPartitioning("pts", part, addrs))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- rt.Serve(ln) }()
	held, drained := false, false
	t.Cleanup(func() {
		if held {
			proxy.release()
		}
		if drained {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
		<-serveDone
	})

	joiner := dial(t, ln.Addr().String())
	prober := dial(t, ln.Addr().String())
	ctx := context.Background()

	// Warm-up: one complete join dials every backend, through the proxy.
	if rows, err := collectJoin(t, joiner, "pts", 3); err != nil || len(rows) != len(pts) {
		t.Fatalf("warm-up join: %d rows, err %v; want %d rows", len(rows), err, len(pts))
	}
	var clis []*client.Client
	for _, s := range rt.datasets["pts"].shards {
		s.backend.mu.Lock()
		cli := s.backend.cli
		s.backend.mu.Unlock()
		if cli == nil {
			t.Fatalf("backend %s not connected after the warm-up join", s.name)
		}
		clis = append(clis, cli)
	}

	// Park a join on the held shard; the router has begun it once its
	// request counter moves.
	requests := reg.Counter("router.requests")
	before := requests.Value()
	proxy.hold()
	held = true
	type joinOut struct {
		rows []ann.Result
		err  error
	}
	joined := make(chan joinOut, 1)
	go func() {
		rows, err := collectJoin(t, joiner, "pts", 3)
		joined <- joinOut{rows, err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for requests.Value() == before {
		if time.Now().After(deadline) {
			t.Fatal("the router never began the held join")
		}
		time.Sleep(time.Millisecond)
	}

	shut := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shut <- rt.Shutdown(sctx)
	}()

	// The established connection is refused once the drain is visible.
	for {
		_, err := prober.List(ctx)
		if wire.IsCode(err, wire.CodeShuttingDown) {
			break
		}
		if err != nil {
			t.Fatalf("request during drain: got %v, want SHUTTING_DOWN", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("the drain never refused a new request")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v while a join was in flight", err)
	default:
	}

	proxy.release()
	held = false
	select {
	case out := <-joined:
		if out.err != nil {
			t.Fatalf("in-flight join failed during drain: %v", out.err)
		}
		if len(out.rows) != len(pts) {
			t.Fatalf("in-flight join returned %d rows, want the single node's %d", len(out.rows), len(pts))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight join never finished")
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown = %v, want nil", err)
	}
	drained = true
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve = %v, want nil after a drain", err)
	}

	for i, s := range rt.datasets["pts"].shards {
		s.backend.mu.Lock()
		open := s.backend.cli != nil
		s.backend.mu.Unlock()
		if open {
			t.Errorf("backend %s still holds a client after Shutdown", s.name)
		}
		if _, err := clis[i].List(ctx); err == nil {
			t.Errorf("backend %s client still answers after Shutdown", s.name)
		}
	}
}

// Package faultnet is a dependency-free, in-process TCP proxy that
// injects network faults between a client and one backend from a
// seeded deterministic schedule: added latency, connection resets
// mid-body, blackholes (accept, then stall), response truncation, and
// full partitions of the backend.
//
// It exists so the cluster's exactly-once write path can be tested
// against real transport failures — not mocks — while keeping the
// failure sequence reproducible: a Schedule decides the fault for the
// n-th accepted connection, and the seeded RandSchedule consumes a
// fixed number of RNG draws per decision, so the fault sequence is a
// pure function of (seed, connection ordinal). With HTTP keep-alives
// disabled on the client side, one request is one connection is one
// scheduled decision.
//
// Tests use it programmatically (Start, Partition, Close).
package faultnet

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Kind enumerates the injectable faults.
type Kind int

const (
	// None passes the connection through untouched.
	None Kind = iota
	// AddLatency delays the connection's first byte in each direction.
	AddLatency
	// Reset forwards part of the request and then resets (RST) both
	// sides mid-body.
	Reset
	// Blackhole accepts the connection and then stalls it: no byte is
	// ever forwarded and the connection stays open until the client
	// gives up or the proxy closes.
	Blackhole
	// Truncate forwards the request, then forwards only a prefix of
	// the response and closes — the client sees an unexpected EOF.
	Truncate

	nKinds
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case AddLatency:
		return "latency"
	case Reset:
		return "reset"
	case Blackhole:
		return "blackhole"
	case Truncate:
		return "truncate"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Decision is one connection's fault.
type Decision struct {
	Kind Kind
	// Latency is the added delay (AddLatency).
	Latency time.Duration
	// After is how many bytes are forwarded before the cut
	// (Reset: request bytes; Truncate: response bytes). Values <= 0
	// default to 1.
	After int
}

// Schedule decides the fault for the n-th accepted connection
// (0-based). The proxy calls Decide sequentially from its accept loop,
// so implementations see strictly increasing ordinals.
type Schedule interface {
	Decide(conn int) Decision
}

// Script replays a fixed decision sequence, then passes every later
// connection through clean. Tests use it to place one exact fault.
func Script(ds ...Decision) Schedule { return &script{ds: ds} }

type script struct {
	mu sync.Mutex
	ds []Decision
	i  int
}

func (s *script) Decide(int) Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.i < len(s.ds) {
		d := s.ds[s.i]
		s.i++
		return d
	}
	return Decision{}
}

// Weights picks fault kinds proportionally. Zero-value fields mean
// "never"; an all-zero Weights means every connection is clean.
type Weights struct {
	None, Latency, Reset, Blackhole, Truncate int
	// MaxLatency bounds AddLatency delays (default 50ms).
	MaxLatency time.Duration
	// MaxAfter bounds the pre-cut byte count (default 256 — small
	// enough that an HTTP exchange is genuinely cut mid-body).
	MaxAfter int
}

// NewRandSchedule draws each connection's decision from seeded
// pseudo-randomness. Every Decide call consumes exactly three RNG
// values regardless of the drawn kind, so the decision sequence
// depends only on the seed and the connection ordinal — never on
// timing or on which faults fired earlier.
func NewRandSchedule(seed int64, w Weights) Schedule {
	if w.MaxLatency <= 0 {
		w.MaxLatency = 50 * time.Millisecond
	}
	if w.MaxAfter <= 0 {
		w.MaxAfter = 256
	}
	return &randSchedule{rng: rand.New(rand.NewSource(seed)), w: w}
}

type randSchedule struct {
	mu  sync.Mutex
	rng *rand.Rand
	w   Weights
}

func (s *randSchedule) Decide(int) Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Fixed draw count per call (see NewRandSchedule).
	roll := s.rng.Intn(maxInt(1, s.w.None+s.w.Latency+s.w.Reset+s.w.Blackhole+s.w.Truncate))
	lat := time.Duration(s.rng.Int63n(int64(s.w.MaxLatency)) + 1)
	after := s.rng.Intn(s.w.MaxAfter) + 1
	d := Decision{Latency: lat, After: after}
	for _, step := range []struct {
		weight int
		kind   Kind
	}{
		{s.w.None, None}, {s.w.Latency, AddLatency}, {s.w.Reset, Reset},
		{s.w.Blackhole, Blackhole}, {s.w.Truncate, Truncate},
	} {
		if roll < step.weight {
			d.Kind = step.kind
			return d
		}
		roll -= step.weight
	}
	d.Kind = None
	return d
}

// Stats counts what the proxy has done so far.
type Stats struct {
	// Conns is the total accepted connection count.
	Conns int64 `json:"conns"`
	// Faults counts decisions by kind name (clean connections under
	// "none").
	Faults map[string]int64 `json:"faults"`
	// Partitioned counts connections swallowed by a full partition.
	Partitioned int64 `json:"partitioned"`
}

// Proxy is one running fault-injection proxy in front of one backend.
type Proxy struct {
	target string
	sched  Schedule
	ln     net.Listener
	done   chan struct{}
	wg     sync.WaitGroup

	partitioned atomic.Bool

	mu        sync.Mutex
	conns     map[net.Conn]struct{} // every live proxied or stalled conn
	partConns map[net.Conn]struct{} // stalled by the current partition
	accepted  int

	counts      [nKinds]atomic.Int64
	partCount   atomic.Int64
	connGrace   time.Duration // read-deadline grace for Reset/Truncate cuts
	closingOnce sync.Once
}

// Start listens on an ephemeral localhost port and proxies every
// accepted connection to target ("host:port"), applying sched's
// decision for it.
func Start(target string, sched Schedule) (*Proxy, error) {
	if sched == nil {
		sched = Script()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("faultnet: listen: %w", err)
	}
	p := &Proxy{
		target:    target,
		sched:     sched,
		ln:        ln,
		done:      make(chan struct{}),
		conns:     make(map[net.Conn]struct{}),
		partConns: make(map[net.Conn]struct{}),
		connGrace: 2 * time.Second,
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's listen address ("host:port").
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// URL is the proxy's base URL for HTTP clients.
func (p *Proxy) URL() string { return "http://" + p.Addr() }

// Partition switches the full-partition state: while on, every new
// connection is swallowed (accepted, then stalled — the client sees a
// dead link, not a refusal). Healing the partition closes the stalled
// connections so waiting clients fail fast and retry.
func (p *Proxy) Partition(on bool) {
	p.partitioned.Store(on)
	if !on {
		p.mu.Lock()
		for c := range p.partConns {
			c.Close()
			delete(p.conns, c)
		}
		p.partConns = make(map[net.Conn]struct{})
		p.mu.Unlock()
	}
}

// Stats snapshots the proxy's counters.
func (p *Proxy) Stats() Stats {
	p.mu.Lock()
	n := p.accepted
	p.mu.Unlock()
	st := Stats{Conns: int64(n), Faults: make(map[string]int64, nKinds), Partitioned: p.partCount.Load()}
	for k := Kind(0); k < nKinds; k++ {
		if v := p.counts[k].Load(); v > 0 {
			st.Faults[k.String()] = v
		}
	}
	return st
}

// Close stops accepting, severs every live connection, and waits for
// the proxy's goroutines to exit.
func (p *Proxy) Close() error {
	p.closingOnce.Do(func() {
		close(p.done)
		p.ln.Close()
		p.mu.Lock()
		for c := range p.conns {
			c.Close()
		}
		p.mu.Unlock()
	})
	p.wg.Wait()
	return nil
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.mu.Lock()
		ord := p.accepted
		p.accepted++
		if p.closed() {
			p.mu.Unlock()
			c.Close()
			return
		}
		if p.partitioned.Load() {
			p.conns[c] = struct{}{}
			p.partConns[c] = struct{}{}
			p.mu.Unlock()
			p.partCount.Add(1)
			continue // never read: a swallowed connection
		}
		p.mu.Unlock()
		// Decide in accept order, before the handler goroutine races.
		d := p.sched.Decide(ord)
		p.counts[d.Kind].Add(1)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.handle(c, d)
		}()
	}
}

func (p *Proxy) closed() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// track registers a connection for Close teardown; untrack removes it.
func (p *Proxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns[c] = struct{}{}
	p.mu.Unlock()
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) handle(c net.Conn, d Decision) {
	p.track(c)
	if d.Kind == Blackhole {
		// Hold the connection open without ever reading it; Close (or
		// the client's own timeout) ends it. untrack is skipped on
		// purpose: Close must still find it.
		return
	}
	defer p.untrack(c)
	defer c.Close()

	up, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	p.track(up)
	defer p.untrack(up)
	defer up.Close()

	if d.Kind == AddLatency && d.Latency > 0 {
		select {
		case <-time.After(d.Latency):
		case <-p.done:
			return
		}
	}

	after := int64(d.After)
	if after <= 0 {
		after = 1
	}
	switch d.Kind {
	case Reset:
		// Forward a prefix of the request, then RST both directions.
		// The read deadline bounds the stall when the request is
		// shorter than the cut point.
		c.SetReadDeadline(time.Now().Add(p.connGrace))
		_, _ = io.CopyN(up, c, after)
		abort(c)
		abort(up)
	case Truncate:
		// Forward the request; cut the response after a prefix. The
		// deadline bounds the stall when the backend keeps the
		// connection alive past a short response.
		go func() { _, _ = io.Copy(up, c) }()
		up.SetReadDeadline(time.Now().Add(p.connGrace))
		_, _ = io.CopyN(c, up, after)
	default: // None, AddLatency: clean bidirectional copy
		done := make(chan struct{}, 2)
		go func() {
			_, _ = io.Copy(up, c)
			halfClose(up)
			done <- struct{}{}
		}()
		go func() {
			_, _ = io.Copy(c, up)
			halfClose(c)
			done <- struct{}{}
		}()
		<-done
		<-done
	}
}

// abort closes with linger 0 so the peer sees an RST, not a graceful
// FIN — a genuine mid-body connection reset.
func abort(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = c.Close()
}

// halfClose propagates EOF in one direction without tearing down the
// other, which HTTP needs for request/response overlap.
func halfClose(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

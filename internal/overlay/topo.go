// In-process loopback topology: a chain of overlay routers and host
// proxies on 127.0.0.1, built for CI and the sim-vs-real
// cross-validation harness (internal/xcheck). Everything runs in one
// process over the loopback interface — no privileges, no containers —
// yet exercises the real UDP sockets, the real port goroutines, and
// the real schedulers, so agreement with the simulator is evidence
// about the deployment path, not a mock of it.
package overlay

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tva/internal/capability"
	"tva/internal/core"
	"tva/internal/metrics"
	"tva/internal/packet"
	"tva/internal/telemetry"
	"tva/internal/trace"
	"tva/internal/tvatime"
)

// TopoConfig configures an in-process router chain.
type TopoConfig struct {
	// Routers is the chain length (default 2). Router i forwards toward
	// router i+1 for hosts attached further right, and toward i-1 for
	// hosts attached further left.
	Routers int
	// LinkBps paces every port (router-to-router and router-to-host).
	LinkBps int64
	// RequestFraction is the request-channel share (default 5%).
	RequestFraction float64
	// Suite selects nothing: capability.Crypto is the only
	// construction. The field stays because bench/ sets it.
	Suite capability.Suite
	// CacheEntries sizes each router's flow cache (default 4096, the
	// simulator harness's setting).
	CacheEntries int
	// Batch sets each router's burst width (see RouterConfig); the
	// loopback default is width one, the same data path as any larger
	// setting.
	Batch int
	// SpanCapacity, if positive, attaches a shared packet-lifecycle
	// flight recorder across all routers: each router assigns fresh
	// trace IDs at its ingress and records enqueue/dequeue/tx edges at
	// its ports, giving per-hop span fragments for wait aggregation.
	SpanCapacity int
}

// Topology is a running chain of loopback routers plus the hosts
// attached to them.
type Topology struct {
	cfg     TopoConfig
	routers []*Router
	spans   *SpanSink
	clock   tvatime.Clock

	mu      sync.Mutex
	hosts   []*Host
	metrics []*RouterMetrics

	// tickMu serializes registry/detector ticks between the optional
	// ticker goroutine and manual Tick calls (the detector is not
	// concurrency-safe).
	tickMu sync.Mutex

	stop      chan struct{}
	stopOnce  sync.Once
	tickersWG sync.WaitGroup
}

// NewTopology binds and starts the router chain.
func NewTopology(cfg TopoConfig) (*Topology, error) {
	if cfg.Routers <= 0 {
		cfg.Routers = 2
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 4096
	}
	t := &Topology{
		cfg:   cfg,
		clock: tvatime.WallClock{},
		stop:  make(chan struct{}),
	}
	if cfg.SpanCapacity > 0 {
		t.spans = NewSpanSink(trace.NewRecorder(cfg.SpanCapacity))
	}
	for i := 0; i < cfg.Routers; i++ {
		r, err := NewRouter(RouterConfig{
			Listen: "127.0.0.1:0",
			Core: core.RouterConfig{
				ID:            uint8(i + 1),
				CacheEntries:  cfg.CacheEntries,
				TrustBoundary: true,
			},
			LinkBps:         cfg.LinkBps,
			RequestFraction: cfg.RequestFraction,
			Batch:           cfg.Batch,
			Spans:           t.spans,
		})
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("overlay: topology router %d: %w", i, err)
		}
		t.routers = append(t.routers, r)
	}
	return t, nil
}

// Router returns the i-th router of the chain.
func (t *Topology) Router(i int) *Router { return t.routers[i] }

// Spans returns the shared span sink (nil unless SpanCapacity > 0).
func (t *Topology) Spans() *SpanSink { return t.spans }

// AddHost binds a host proxy, attaches it to router `at` (its
// gateway), and installs chain routes for its address on every router:
// routers left of `at` forward toward their right neighbour, routers
// right of it toward their left neighbour, and router `at` delivers to
// the host's socket.
func (t *Topology) AddHost(addr packet.Addr, at int, policy core.Policy, shim core.ShimConfig) (*Host, error) {
	if at < 0 || at >= len(t.routers) {
		return nil, fmt.Errorf("overlay: AddHost at router %d of %d", at, len(t.routers))
	}
	h, err := NewHost(HostConfig{
		Addr:    addr,
		Listen:  "127.0.0.1:0",
		Gateway: t.routers[at].Addr().String(),
		Policy:  policy,
		Shim:    shim,
	})
	if err != nil {
		return nil, err
	}
	if err := t.routeTo(addr, at, h.UDPAddr().String()); err != nil {
		h.Close()
		return nil, err
	}
	t.mu.Lock()
	t.hosts = append(t.hosts, h)
	t.mu.Unlock()
	return h, nil
}

// routeTo installs the chain routes for one destination address whose
// delivery point is the given UDP address behind router `at`.
func (t *Topology) routeTo(addr packet.Addr, at int, via string) error {
	for i, r := range t.routers {
		next := via
		switch {
		case i < at:
			next = t.routers[i+1].Addr().String()
		case i > at:
			next = t.routers[i-1].Addr().String()
		}
		if err := r.AddRoute(addr, next); err != nil {
			return err
		}
	}
	return nil
}

// LinkWaitSketch returns the queue-wait sketch of router i's port
// toward router i+1 — the forward direction of chain link i. Nil until
// a route crossing that link has been installed (ports are created
// lazily).
func (t *Topology) LinkWaitSketch(i int) *metrics.Sketch {
	if i < 0 || i+1 >= len(t.routers) {
		return nil
	}
	return t.routers[i].PortWaitSketch(t.routers[i+1].Addr().String())
}

// LinkSchedDrops returns the reason-attributed drops of router i's
// port toward router i+1 (forward direction of chain link i).
func (t *Topology) LinkSchedDrops(i int) telemetry.DropCounters {
	if i < 0 || i+1 >= len(t.routers) {
		return telemetry.DropCounters{}
	}
	return t.routers[i].PortSchedDrops(t.routers[i+1].Addr().String())
}

// StartMetrics builds each router's streaming registry (call it after
// every AddHost, so per-port series cover the ports that exist) and,
// when interval > 0, starts one wall-clock ticker goroutine driving
// all of them. The goroutine exits on Close (stop-channel pattern).
func (t *Topology) StartMetrics(window int, interval time.Duration) ([]*RouterMetrics, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.metrics != nil {
		return nil, errors.New("overlay: topology metrics already started")
	}
	ms := make([]*RouterMetrics, len(t.routers))
	for i, r := range t.routers {
		ms[i] = r.Metrics(window)
	}
	t.metrics = ms
	if interval > 0 {
		t.tickersWG.Add(1)
		go func() {
			defer t.tickersWG.Done()
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-t.stop:
					return
				case <-tick.C:
					t.Tick()
				}
			}
		}()
	}
	return ms, nil
}

// Metrics returns router i's registry/detector bundle (nil before
// StartMetrics).
func (t *Topology) Metrics(i int) *RouterMetrics {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.metrics == nil {
		return nil
	}
	return t.metrics[i]
}

// Tick samples every router's registry and health detector once at the
// current wall time. Serialized against the ticker goroutine, so a
// caller may take a final deterministic sample before scraping.
func (t *Topology) Tick() {
	t.mu.Lock()
	ms := t.metrics
	t.mu.Unlock()
	if ms == nil {
		return
	}
	now := t.clock.Now()
	t.tickMu.Lock()
	defer t.tickMu.Unlock()
	for _, m := range ms {
		m.Tick(now)
	}
}

// Close stops the ticker, then shuts hosts and routers down and waits
// for their goroutines.
func (t *Topology) Close() error {
	t.stopOnce.Do(func() { close(t.stop) })
	t.tickersWG.Wait()
	var first error
	t.mu.Lock()
	hosts := t.hosts
	t.hosts = nil
	t.mu.Unlock()
	for _, h := range hosts {
		if err := h.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, r := range t.routers {
		if r == nil {
			continue
		}
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

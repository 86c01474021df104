// Host proxy: the upgraded-host side of incremental deployment (§8),
// offering applications a capability-protected datagram service. The
// proxy owns a core.Shim, bootstraps and renews capabilities
// transparently, and answers inbound requests per its policy.
package overlay

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"tva/internal/core"
	"tva/internal/packet"
	"tva/internal/telemetry"
	"tva/internal/tvatime"
)

// HostConfig configures an overlay host proxy.
type HostConfig struct {
	// Addr is the host's TVA address.
	Addr packet.Addr
	// Listen is the UDP address to bind.
	Listen string
	// Gateway is the first-hop router's UDP address.
	Gateway string
	// Policy authorizes inbound senders (nil refuses everyone).
	Policy core.Policy
	// Shim tunes the capability layer; zero value uses defaults with
	// the crypto suite.
	Shim core.ShimConfig
}

// Message is one delivered datagram.
type Message struct {
	Src     packet.Addr
	Payload []byte
	Demoted bool
}

// Host is a userspace TVA end system.
type Host struct {
	conn    *net.UDPConn
	gateway *net.UDPAddr
	shim    *core.Shim
	addr    packet.Addr

	// ops serializes all shim access onto the event loop goroutine.
	ops    chan func()
	closed chan struct{}
	wg     sync.WaitGroup

	// Inbox receives delivered messages. It is buffered; slow
	// consumers drop (counted in Dropped under inbox-overflow).
	Inbox chan Message
	mu    sync.Mutex
	drops telemetry.DropCounters
}

// NewHost binds the proxy and starts its loops.
func NewHost(cfg HostConfig) (*Host, error) {
	if cfg.Addr == 0 {
		return nil, errors.New("overlay: host needs a TVA address")
	}
	gw, err := net.ResolveUDPAddr("udp", cfg.Gateway)
	if err != nil {
		return nil, fmt.Errorf("overlay: gateway %q: %w", cfg.Gateway, err)
	}
	laddr, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("overlay: listen %q: %w", cfg.Listen, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("overlay: listen: %w", err)
	}
	h := &Host{
		conn:    conn,
		gateway: gw,
		addr:    cfg.Addr,
		ops:     make(chan func(), 256),
		closed:  make(chan struct{}),
		Inbox:   make(chan Message, 1024),
	}
	shimCfg := cfg.Shim
	h.shim = core.NewShim(cfg.Addr, cfg.Policy, tvatime.WallClock{},
		rand.New(rand.NewSource(time.Now().UnixNano())), shimCfg)
	h.shim.Output = h.transmit
	h.shim.Deliver = h.deliver
	h.wg.Add(2)
	go h.receiveLoop()
	go h.eventLoop()
	return h, nil
}

// Addr returns the host's TVA address.
func (h *Host) Addr() packet.Addr { return h.addr }

// UDPAddr returns the bound UDP address.
func (h *Host) UDPAddr() *net.UDPAddr { return h.conn.LocalAddr().(*net.UDPAddr) }

// Dropped reports inbox overflow drops.
func (h *Host) Dropped() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.drops.Get(telemetry.DropInboxOverflow)
}

// DropReasons returns a snapshot of the host's per-reason drop counts.
func (h *Host) DropReasons() telemetry.DropCounters {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.drops
}

// transmit marshals and sends a shim packet to the gateway. Runs on
// the event loop goroutine. The marshaled bytes are the packet's wire
// life; the in-memory form goes back to the pool here.
func (h *Host) transmit(pkt *packet.Packet) {
	data, err := pkt.Marshal(nil)
	packet.Release(pkt)
	if err != nil {
		return
	}
	h.conn.WriteToUDP(data, h.gateway)
}

// deliver hands a payload to the inbox. Runs on the event loop.
func (h *Host) deliver(src packet.Addr, proto packet.Proto, payload any, size int, demoted bool) {
	data, _ := payload.([]byte)
	msg := Message{Src: src, Payload: data, Demoted: demoted}
	select {
	case h.Inbox <- msg:
	default:
		h.mu.Lock()
		h.drops.Inc(telemetry.DropInboxOverflow)
		h.mu.Unlock()
	}
}

// Send transmits payload to dst through the capability layer: the
// first packets carry a request piggybacked, later ones capabilities
// or the flow nonce; renewal is automatic.
func (h *Host) Send(dst packet.Addr, payload []byte) error {
	select {
	case <-h.closed:
		return net.ErrClosed
	default:
	}
	cp := append([]byte(nil), payload...)
	select {
	case h.ops <- func() { h.shim.Send(dst, packet.ProtoRaw, cp, len(cp)) }:
		return nil
	case <-h.closed:
		return net.ErrClosed
	}
}

// query runs f on the event loop, which owns the shim, and returns its
// result, or T's zero value once the host is closed.
func query[T any](h *Host, f func() T) (v T) {
	res := make(chan T, 1)
	select {
	case h.ops <- func() { res <- f() }:
	case <-h.closed:
		return v
	}
	// A closure queued after the loop's final drain never runs.
	select {
	case v = <-res:
	case <-h.closed:
	}
	return v
}

// HasCaps reports whether the host currently holds capabilities toward
// dst (for diagnostics and tests).
func (h *Host) HasCaps(dst packet.Addr) bool {
	return query(h, func() bool { return h.shim.HasCaps(dst) })
}

// LastDemotion reports the most recent demotion evidence involving
// peer: the demoting router's id and reason, carried back in return
// information (§3.8). Diagnostics use it to explain capability-path
// failures instead of reporting a bare timeout.
func (h *Host) LastDemotion(peer packet.Addr) (core.Demotion, bool) {
	type answer struct {
		d  core.Demotion
		ok bool
	}
	a := query(h, func() answer {
		d, ok := h.shim.LastDemotion(peer)
		return answer{d, ok}
	})
	return a.d, a.ok
}

// HopReport returns the most recent per-hop queue-wait report for the
// path toward peer: one (router id, wait µs) stamp per capability
// router the request traversed, carried back in return information.
// Empty unless the shim was configured with CollectHops.
func (h *Host) HopReport(peer packet.Addr) []packet.HopStamp {
	return query(h, func() []packet.HopStamp {
		return append([]packet.HopStamp(nil), h.shim.LastHopReport(peer)...)
	})
}

// Stats snapshots the shim's counters.
func (h *Host) Stats() core.ShimStats {
	return query(h, func() core.ShimStats { return h.shim.Stats })
}

// Close shuts the proxy down.
func (h *Host) Close() error {
	select {
	case <-h.closed:
		return nil
	default:
	}
	close(h.closed)
	err := h.conn.Close()
	h.wg.Wait()
	return err
}

// receiveLoop reads datagrams and forwards them onto the event loop.
func (h *Host) receiveLoop() {
	defer h.wg.Done()
	buf := make([]byte, maxDatagram)
	for {
		n, _, err := h.conn.ReadFromUDP(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			select {
			case <-h.closed:
				return
			default:
				continue
			}
		}
		pkt, err := packet.Unmarshal(buf[:n])
		if err != nil {
			continue
		}
		select {
		case h.ops <- func() { h.shim.Receive(pkt) }:
		case <-h.closed:
			return
		}
	}
}

// eventLoop owns the shim.
func (h *Host) eventLoop() {
	defer h.wg.Done()
	for {
		select {
		case op := <-h.ops:
			op()
		case <-h.closed:
			// Drain what's queued so Close is not racy with Send.
			for {
				select {
				case op := <-h.ops:
					op()
				default:
					return
				}
			}
		}
	}
}

// Package tcp is the transport substrate for the simulation: a
// Reno-style TCP (slow start, congestion avoidance, fast retransmit,
// RTT-estimated retransmission timeouts) with the evaluation's
// modifications from paper §5:
//
//   - the SYN timeout is fixed at one second (no exponential backoff)
//     with up to eight retransmissions, so that capability requests
//     piggybacked on SYNs are retried aggressively for every scheme;
//   - a data transfer aborts when the retransmission timeout for a
//     segment exceeds 64 seconds or the same segment has been
//     transmitted more than ten times.
//
// Sequence numbers count bytes; the SYN occupies sequence 0 and data
// occupies [1, total]. Transfers are one-directional (client sends,
// server acknowledges), which is all the evaluation workload needs;
// payload bytes are modeled by length only.
package tcp

import (
	"fmt"
	"math/rand"

	"tva/internal/packet"
	"tva/internal/tvatime"
)

// Flags are TCP header flags.
type Flags uint8

// Flag bits.
const (
	FlagSYN Flags = 1 << iota
	FlagACK
	FlagFIN
	FlagRST
)

// HeaderLen is the modeled TCP header size in bytes.
const HeaderLen = 20

// Segment is one TCP segment. Payload content is modeled by Len only.
type Segment struct {
	SrcPort, DstPort uint16
	Flags            Flags
	Seq, Ack         uint32
	Len              int
}

// WireLen returns the segment's on-the-wire size above IP.
func (s *Segment) WireLen() int { return HeaderLen + s.Len }

// String implements fmt.Stringer.
func (s *Segment) String() string {
	f := ""
	if s.Flags&FlagSYN != 0 {
		f += "S"
	}
	if s.Flags&FlagACK != 0 {
		f += "A"
	}
	if s.Flags&FlagFIN != 0 {
		f += "F"
	}
	if s.Flags&FlagRST != 0 {
		f += "R"
	}
	return fmt.Sprintf("[%s seq=%d ack=%d len=%d %d->%d]", f, s.Seq, s.Ack, s.Len, s.SrcPort, s.DstPort)
}

// The evaluation's TCP settings (paper §5 and ns-2's defaults).
const (
	mss            = 1000                      // segment payload size in bytes
	initCwndSegs   = 2                         // initial window in segments
	synTimeout     = tvatime.Second            // fixed SYN retransmit interval
	maxSYNRetries  = 8                         // SYN timeouts before abort
	minRTO         = 200 * tvatime.Millisecond // RTO floor
	maxRTO         = 64 * tvatime.Second       // abort when the RTO exceeds this
	maxSegRetrans  = 10                        // abort when one segment exceeds this
	receiveWindow  = 1 << 20                   // receiver window in bytes
	idleReapPeriod = 30 * tvatime.Second       // server-side idle connection reap
)

// Stack is one host's TCP instance. It is single-threaded: the
// simulator (or overlay event loop) serializes calls.
type Stack struct {
	addr  packet.Addr
	clock tvatime.Clock
	after func(d tvatime.Duration, fn func())
	send  func(dst packet.Addr, seg *Segment)
	rng   *rand.Rand

	conns     map[connKey]*Conn
	listeners map[uint16]func(*Conn)
	nextPort  uint16

	// Stats.
	SegsSent, SegsReceived, Unmatched uint64
}

type connKey struct {
	peer          packet.Addr
	local, remote uint16
}

// NewStack returns a TCP stack for addr. after schedules a callback
// (the simulator's After); send transmits a segment toward dst (the
// host shim wraps it in a packet).
func NewStack(addr packet.Addr, clock tvatime.Clock, after func(tvatime.Duration, func()), send func(packet.Addr, *Segment), rng *rand.Rand) *Stack {
	return &Stack{
		addr:      addr,
		clock:     clock,
		after:     after,
		send:      send,
		rng:       rng,
		conns:     make(map[connKey]*Conn),
		listeners: make(map[uint16]func(*Conn)),
		nextPort:  1024,
	}
}

// Addr returns the stack's address.
func (st *Stack) Addr() packet.Addr { return st.addr }

// Listen registers an accept callback for a port. The callback runs
// when a connection is created by an incoming SYN.
func (st *Stack) Listen(port uint16, onConn func(*Conn)) {
	st.listeners[port] = onConn
}

// Dial starts a client connection to dst:port that will send
// totalBytes of data once established. Callbacks may be set on the
// returned Conn before the first event fires (the SYN is sent
// immediately but responses arrive strictly later).
func (st *Stack) Dial(dst packet.Addr, port uint16, totalBytes int) *Conn {
	local := st.allocPort(dst, port)
	c := &Conn{
		st:       st,
		peer:     dst,
		local:    local,
		remote:   port,
		isClient: true,
		state:    stateSynSent,
		total:    uint32(totalBytes),
		cwnd:     initCwndSegs * mss,
		ssthresh: receiveWindow,
		rto:      synTimeout,
		retx:     make(map[uint32]int),
		started:  st.clock.Now(),
	}
	st.conns[connKey{dst, local, port}] = c
	c.sendSYN()
	return c
}

func (st *Stack) allocPort(dst packet.Addr, port uint16) uint16 {
	for {
		st.nextPort++
		if st.nextPort < 1024 {
			st.nextPort = 1024
		}
		if _, used := st.conns[connKey{dst, st.nextPort, port}]; !used {
			return st.nextPort
		}
	}
}

// Receive delivers an incoming segment from src to the matching
// connection or listener. Unmatched segments are counted and dropped.
func (st *Stack) Receive(src packet.Addr, seg *Segment) {
	st.SegsReceived++
	key := connKey{src, seg.DstPort, seg.SrcPort}
	if c, ok := st.conns[key]; ok {
		c.receive(seg)
		return
	}
	if seg.Flags&FlagSYN != 0 && seg.Flags&FlagACK == 0 {
		if onConn, ok := st.listeners[seg.DstPort]; ok {
			c := st.acceptConn(src, seg)
			if onConn != nil {
				onConn(c)
			}
			return
		}
	}
	st.Unmatched++
}

func (st *Stack) acceptConn(src packet.Addr, syn *Segment) *Conn {
	c := &Conn{
		st:       st,
		peer:     src,
		local:    syn.DstPort,
		remote:   syn.SrcPort,
		state:    stateEstablished,
		rcvNxt:   1,
		ooo:      make(map[uint32]int),
		retx:     make(map[uint32]int),
		started:  st.clock.Now(),
		lastSeen: st.clock.Now(),
	}
	st.conns[connKey{src, syn.DstPort, syn.SrcPort}] = c
	c.sendSynAck()
	c.armReap()
	return c
}

func (st *Stack) remove(c *Conn) {
	delete(st.conns, connKey{c.peer, c.local, c.remote})
}

// NumConns returns the live connection count (for tests).
func (st *Stack) NumConns() int { return len(st.conns) }

// Connection states.
const (
	stateSynSent = iota
	stateEstablished
	stateDone
	stateFailed
)

// Conn is one TCP connection. Client connections send data; server
// connections acknowledge it.
type Conn struct {
	st *Stack

	peer          packet.Addr
	local, remote uint16
	isClient      bool
	state         int

	// Sender.
	total    uint32 // bytes to send; data occupies [1, total]
	sndUna   uint32
	sndNxt   uint32
	cwnd     float64
	ssthresh float64
	dupAcks  int

	rto         tvatime.Duration
	srtt        tvatime.Duration
	rttvar      tvatime.Duration
	hasRTT      bool
	timedSeq    uint32
	timedAt     tvatime.Time
	timedValid  bool
	rtoGen      int
	rtoArmed    bool
	synRetries  int
	retx        map[uint32]int
	retransHint bool // a retransmission happened since last RTT sample

	// Receiver.
	rcvNxt   uint32
	ooo      map[uint32]int
	received uint64

	started  tvatime.Time
	lastSeen tvatime.Time
	reaping  bool

	// OnEstablished fires on the client when the SYN/ACK arrives.
	OnEstablished func()
	// OnDone fires once on the client when the transfer completes
	// (success) or aborts (failure).
	OnDone func(success bool)
	// OnData fires on the server as in-order data advances; n is the
	// newly delivered byte count.
	OnData func(n int)
}

// Received returns the in-order bytes delivered to a server conn.
func (c *Conn) Received() uint64 { return c.received }

// Done reports whether the connection has finished (either way).
func (c *Conn) Done() bool { return c.state == stateDone || c.state == stateFailed }

func (c *Conn) emit(seg *Segment) {
	seg.SrcPort, seg.DstPort = c.local, c.remote
	c.st.SegsSent++
	c.st.send(c.peer, seg)
}

// --- client side ---

func (c *Conn) sendSYN() {
	c.emit(&Segment{Flags: FlagSYN, Seq: 0})
	gen := c.nextGen()
	c.st.after(synTimeout, func() { c.synTimeout(gen) })
}

func (c *Conn) synTimeout(gen int) {
	if gen != c.rtoGen || c.state != stateSynSent {
		return
	}
	c.synRetries++
	if c.synRetries >= maxSYNRetries {
		c.fail()
		return
	}
	c.sendSYN()
}

func (c *Conn) nextGen() int {
	c.rtoGen++
	return c.rtoGen
}

func (c *Conn) fail() {
	if c.Done() {
		return
	}
	c.state = stateFailed
	c.st.remove(c)
	if c.OnDone != nil {
		c.OnDone(false)
	}
}

func (c *Conn) succeed() {
	if c.Done() {
		return
	}
	c.state = stateDone
	c.st.remove(c)
	if c.OnDone != nil {
		c.OnDone(true)
	}
}

func (c *Conn) receive(seg *Segment) {
	c.lastSeen = c.st.clock.Now()
	if seg.Flags&FlagRST != 0 {
		c.fail()
		return
	}
	if c.isClient {
		c.clientReceive(seg)
	} else {
		c.serverReceive(seg)
	}
}

func (c *Conn) clientReceive(seg *Segment) {
	switch c.state {
	case stateSynSent:
		if seg.Flags&(FlagSYN|FlagACK) == FlagSYN|FlagACK && seg.Ack >= 1 {
			c.state = stateEstablished
			c.sndUna, c.sndNxt = 1, 1
			c.rcvNxt = 1
			c.nextGen() // cancel SYN timer
			c.rto = minRTO
			if c.OnEstablished != nil {
				c.OnEstablished()
			}
			if c.total == 0 {
				// Nothing to send: pure handshake.
				c.emit(&Segment{Flags: FlagACK, Seq: 1, Ack: 1})
				c.succeed()
				return
			}
			c.pump()
		}
	case stateEstablished:
		if seg.Flags&FlagACK == 0 || seg.Flags&FlagSYN != 0 {
			return // stray or duplicate handshake segment
		}
		c.handleAck(seg.Ack)
	}
}

func (c *Conn) handleAck(ack uint32) {
	if ack > c.sndUna {
		// New data acknowledged.
		c.sampleRTT(ack)
		c.sndUna = ack
		if c.sndNxt < c.sndUna {
			// A post-timeout go-back-N rewind can leave sndNxt behind
			// an ack for data sent before the timeout; never let the
			// window go negative.
			c.sndNxt = c.sndUna
		}
		c.dupAcks = 0
		if c.cwnd < c.ssthresh {
			c.cwnd += mss // slow start
		} else {
			c.cwnd += mss * mss / c.cwnd // congestion avoidance
		}
		if c.sndUna >= 1+c.total {
			c.succeed()
			return
		}
		c.restartRTO()
		c.pump()
		return
	}
	if ack == c.sndUna && c.sndNxt > c.sndUna {
		c.dupAcks++
		if c.dupAcks == 3 {
			c.fastRetransmit()
		}
	}
}

func (c *Conn) sampleRTT(ack uint32) {
	if !c.timedValid || ack <= c.timedSeq {
		return
	}
	taint := c.retransHint
	c.timedValid = false
	if ack >= c.sndNxt {
		// Everything in flight is acknowledged; future samples are
		// untainted by past retransmissions.
		c.retransHint = false
	}
	if taint {
		// Karn's algorithm: no samples across retransmissions.
		return
	}
	rtt := c.st.clock.Now().Sub(c.timedAt)
	if !c.hasRTT {
		c.srtt = rtt
		c.rttvar = rtt / 2
		c.hasRTT = true
	} else {
		d := c.srtt - rtt
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + rtt) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < minRTO {
		c.rto = minRTO
	}
}

// pump sends new data allowed by the congestion window.
func (c *Conn) pump() {
	end := 1 + c.total
	for c.sndNxt < end && float64(c.sndNxt-c.sndUna) < c.cwnd {
		l := uint32(mss)
		if end-c.sndNxt < l {
			l = end - c.sndNxt
		}
		c.transmit(c.sndNxt, int(l), false)
		if c.Done() {
			return
		}
		c.sndNxt += l
	}
	c.armRTO()
}

func (c *Conn) transmit(seq uint32, l int, isRetrans bool) {
	c.retx[seq]++
	if c.retx[seq] > maxSegRetrans {
		c.fail()
		return
	}
	if isRetrans {
		c.retransHint = true
	} else if !c.timedValid {
		c.timedSeq = seq
		c.timedAt = c.st.clock.Now()
		c.timedValid = true
	}
	c.emit(&Segment{Flags: FlagACK, Seq: seq, Ack: c.rcvNxt, Len: l})
}

func (c *Conn) fastRetransmit() {
	flight := float64(c.sndNxt - c.sndUna)
	c.ssthresh = flight / 2
	if c.ssthresh < 2*mss {
		c.ssthresh = 2 * mss
	}
	c.cwnd = c.ssthresh
	c.retransmitHead()
	c.armRTOFresh()
}

func (c *Conn) retransmitHead() {
	l := uint32(mss)
	end := 1 + c.total
	if end-c.sndUna < l {
		l = end - c.sndUna
	}
	c.transmit(c.sndUna, int(l), true)
}

func (c *Conn) armRTO() {
	if c.sndUna >= c.sndNxt {
		c.nextGen()
		c.rtoArmed = false
		return
	}
	if !c.rtoArmed {
		c.armRTOFresh()
	}
}

// restartRTO cancels any pending timer and re-arms it from now, the
// standard response to an acknowledgement of new data.
func (c *Conn) restartRTO() {
	c.nextGen()
	c.rtoArmed = false
	if c.sndUna < c.sndNxt {
		c.armRTOFresh()
	}
}

func (c *Conn) armRTOFresh() {
	gen := c.nextGen()
	c.rtoArmed = true
	c.st.after(c.rto, func() { c.rtoTimeout(gen) })
}

func (c *Conn) rtoTimeout(gen int) {
	if gen != c.rtoGen || c.Done() || c.state != stateEstablished {
		return
	}
	c.rtoArmed = false
	if c.sndUna >= c.sndNxt {
		return // everything acked in the meantime
	}
	// Exponential backoff; abort when the timeout exceeds the cap
	// (paper §5: 64 s) — checked before retransmitting so a dead path
	// gives up rather than babbling.
	c.rto *= 2
	if c.rto > maxRTO {
		c.fail()
		return
	}
	flight := float64(c.sndNxt - c.sndUna)
	c.ssthresh = flight / 2
	if c.ssthresh < 2*mss {
		c.ssthresh = 2 * mss
	}
	c.cwnd = mss
	c.dupAcks = 0
	// Go-back-N after a timeout: retransmit the head and let the
	// window re-send the rest as acks return.
	c.retransmitHead()
	if c.Done() {
		return
	}
	c.sndNxt = c.sndUna + mss
	if c.sndNxt > 1+c.total {
		c.sndNxt = 1 + c.total
	}
	c.armRTOFresh()
}

// --- server side ---

func (c *Conn) sendSynAck() {
	c.emit(&Segment{Flags: FlagSYN | FlagACK, Seq: 0, Ack: 1})
}

func (c *Conn) serverReceive(seg *Segment) {
	if seg.Flags&FlagSYN != 0 {
		// Duplicate SYN: client lost our SYN/ACK.
		c.sendSynAck()
		return
	}
	if seg.Len > 0 {
		c.ingest(seg.Seq, seg.Len)
	}
	// Acknowledge every data segment (no delayed acks, matching the
	// evaluation's prompt-ack behaviour).
	if seg.Len > 0 {
		c.emit(&Segment{Flags: FlagACK, Seq: 1, Ack: c.rcvNxt})
	}
}

func (c *Conn) ingest(seq uint32, l int) {
	switch {
	case seq == c.rcvNxt:
		c.advance(l)
		// Drain any contiguous out-of-order segments.
		for {
			nl, ok := c.ooo[c.rcvNxt]
			if !ok {
				break
			}
			delete(c.ooo, c.rcvNxt)
			c.advance(nl)
		}
	case seq > c.rcvNxt:
		if len(c.ooo) < receiveWindow/mss {
			if old, ok := c.ooo[seq]; !ok || old < l {
				c.ooo[seq] = l
			}
		}
	default:
		// Old duplicate; the cumulative ack below handles it.
	}
}

func (c *Conn) advance(l int) {
	c.rcvNxt += uint32(l)
	c.received += uint64(l)
	if c.OnData != nil {
		c.OnData(l)
	}
}

// armReap periodically removes an idle server connection so repeated
// transfers do not accumulate state.
func (c *Conn) armReap() {
	if c.reaping {
		return
	}
	c.reaping = true
	var tick func()
	tick = func() {
		if c.Done() {
			return
		}
		if c.st.clock.Now().Sub(c.lastSeen) > idleReapPeriod {
			c.state = stateDone
			c.st.remove(c)
			return
		}
		c.st.after(idleReapPeriod, tick)
	}
	c.st.after(idleReapPeriod, tick)
}

// DebugState formats the connection's internals for diagnostics.
func (c *Conn) DebugState() string {
	return fmt.Sprintf("state=%d una=%d nxt=%d total=%d cwnd=%.0f ssthresh=%.0f rto=%v armed=%v gen=%d dupacks=%d rcvNxt=%d synRetries=%d",
		c.state, c.sndUna, c.sndNxt, c.total, c.cwnd, c.ssthresh, c.rto, c.rtoArmed, c.rtoGen, c.dupAcks, c.rcvNxt, c.synRetries)
}

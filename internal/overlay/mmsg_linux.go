//go:build linux && amd64

// recvmmsg/sendmmsg batched datagram I/O: one syscall moves a whole
// burst between the socket and the forwarding path, and on the way out
// each run of equal-length datagrams is one UDP_SEGMENT message, so the
// run crosses the kernel's UDP/IP output path once and is cut back into
// datagrams at the far end of it (the NIC, or on loopback the receiving
// socket). Raw syscall numbers are used (x/net is unavailable here); the
// build tag pins the ABI this file assumes, and mmsg_fallback.go serves
// everything else with one syscall per datagram.
package overlay

import (
	"net"
	"os"
	"syscall"
	"unsafe"
)

const (
	sysRecvmmsg = 299 // linux/amd64
	sysSendmmsg = 307 // linux/amd64

	solUDP     = 17  // SOL_UDP
	udpSegment = 103 // UDP_SEGMENT: cmsg carrying the uint16 segment length

	// Limits of one segmented message: the kernel's UDP_MAX_SEGMENTS
	// (64 since 4.18) and a payload that still fits one IP datagram.
	maxSegs     = 64
	maxSegBytes = 65000
)

// mmsghdr mirrors struct mmsghdr: a msghdr plus the kernel-filled
// received length. syscall.Msghdr is 56 bytes on linux/amd64, so the
// trailing pad keeps 8-byte stride alignment across the array.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   uint32
}

// segCmsg is the one control message a segmented send carries:
// cmsghdr{SOL_UDP, UDP_SEGMENT} and the segment length, padded to
// CMSG_SPACE(2).
type segCmsg struct {
	hdr syscall.Cmsghdr
	seg uint16
	_   [6]byte
}

// batchConn owns the scatter-gather state for bursts on one UDP
// socket: fixed header/iovec arrays sized at the batch cap, reused for
// every call so the steady state allocates nothing. One goroutine per
// batchConn: the router's reader has one, each port's sender its own.
type batchConn struct {
	rc   syscall.RawConn
	hdrs []mmsghdr
	iovs []syscall.Iovec
	ctls []segCmsg // ctls[i] is hdrs[i]'s control buffer when it is segmented
	// bufs are the receive buffers, allocated by the first recvBatch: a
	// send-only batchConn (one per port) never pays n × maxDatagram.
	bufs [][]byte
	// to/name cache the last sendBatch destination's raw sockaddr. A
	// port always sends to the same *net.UDPAddr, so it is built once
	// (matched by pointer: callers never mutate an address in place).
	to   *net.UDPAddr
	name []byte
	// segCeil is the coalescing ceiling: only datagrams shorter than it
	// join a segmented message. It starts at maxDatagram and drops to
	// every length the kernel refuses, so it converges to "off" where
	// UDP_SEGMENT is unavailable and keeps small-packet offload where
	// only over-MTU segments are refused.
	segCeil int
	// recvFn/sendFn are the RawConn callbacks, built once: a closure per
	// call costs three heap objects per syscall, which at width 1 is
	// per datagram. n (messages moved), want (messages to send), serr
	// (receive error) and errno (why hdrs[n] was not sent) carry one
	// call's arguments and results.
	recvFn, sendFn func(fd uintptr) bool
	n, want        int
	serr           error
	errno          syscall.Errno
}

// newBatchConn prepares burst I/O of up to n datagrams of maxDatagram
// bytes each on conn.
func newBatchConn(conn *net.UDPConn, n int) (*batchConn, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	b := &batchConn{
		rc:   rc,
		hdrs: make([]mmsghdr, n),
		iovs: make([]syscall.Iovec, n),
		ctls: make([]segCmsg, n),

		segCeil: maxDatagram,
	}
	b.recvFn, b.sendFn = b.recvmmsg, b.sendmmsg
	return b, nil
}

// recvBatch blocks until at least one datagram is readable, then
// drains as many as are ready (up to the batch cap) with one recvmmsg.
// It returns the count; buf(i)/size(i) address the i-th payload.
func (b *batchConn) recvBatch() (int, error) {
	if b.bufs == nil {
		b.bufs = make([][]byte, len(b.hdrs))
		for i := range b.bufs {
			b.bufs[i] = make([]byte, maxDatagram)
		}
	}
	for i := range b.hdrs {
		b.iovs[i] = syscall.Iovec{Base: &b.bufs[i][0], Len: uint64(len(b.bufs[i]))}
		b.hdrs[i].hdr = syscall.Msghdr{Iov: &b.iovs[i], Iovlen: 1}
		b.hdrs[i].len = 0
	}
	b.n, b.serr = 0, nil
	if err := b.rc.Read(b.recvFn); err != nil {
		return 0, err
	}
	return b.n, b.serr
}

// recvmmsg is recvBatch's RawConn callback.
func (b *batchConn) recvmmsg(fd uintptr) bool {
	r1, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
		uintptr(unsafe.Pointer(&b.hdrs[0])), uintptr(len(b.hdrs)),
		syscall.MSG_DONTWAIT, 0, 0)
	if errno == syscall.EAGAIN {
		return false // netpoller waits for readability, then retries
	}
	if errno != 0 {
		b.serr = os.NewSyscallError("recvmmsg", errno)
		return true
	}
	b.n = int(r1)
	return true
}

// buf returns the i-th received payload after recvBatch.
func (b *batchConn) buf(i int) []byte { return b.bufs[i][:b.hdrs[i].len] }

// sockaddrFor builds the raw sockaddr bytes for a UDP destination.
func sockaddrFor(to *net.UDPAddr) []byte {
	port := uint16(to.Port>>8) | uint16(to.Port&0xff)<<8 // network byte order
	if ip4 := to.IP.To4(); ip4 != nil {
		sa := syscall.RawSockaddrInet4{Family: syscall.AF_INET, Port: port}
		copy(sa.Addr[:], ip4)
		return append([]byte(nil), (*(*[syscall.SizeofSockaddrInet4]byte)(unsafe.Pointer(&sa)))[:]...)
	}
	sa := syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Port: port}
	copy(sa.Addr[:], to.IP.To16())
	return append([]byte(nil), (*(*[syscall.SizeofSockaddrInet6]byte)(unsafe.Pointer(&sa)))[:]...)
}

// sendBatch transmits pkts to one destination with as few kernel
// messages and sendmmsg calls as possible (normally one call; all
// packets of a port burst share the next hop, so one sockaddr serves
// every header). It returns how many datagrams the kernel accepted and
// how many messages carried them. The other len(pkts)-sent failed: a
// message the kernel rejects (EMSGSIZE, say) is skipped and the burst
// carries on behind it; err is the first such rejection. Only a dead
// socket ends the call early.
//
// A segmented message the kernel refuses (EINVAL/EIO: no UDP_SEGMENT
// before 4.18, SO_NO_CHECK set, segment above the path MTU) loses
// nothing: its length becomes segCeil and the same datagrams are
// rebuilt as plain messages within this call.
func (b *batchConn) sendBatch(pkts [][]byte, to *net.UDPAddr) (sent, msgs int, err error) {
	if to != b.to {
		b.to, b.name = to, sockaddrFor(to)
	}
	for at := 0; at < len(pkts); {
		b.n, b.want, b.errno = 0, b.build(pkts[at:]), 0
		if werr := b.rc.Write(b.sendFn); werr != nil {
			return sent, msgs, werr
		}
		msgs += b.n
		for i := 0; i < b.n; i++ {
			n := int(b.hdrs[i].hdr.Iovlen)
			sent, at = sent+n, at+n
		}
		if b.errno == 0 {
			continue
		}
		bad := &b.hdrs[b.n].hdr
		if bad.Controllen != 0 && (b.errno == syscall.EINVAL || b.errno == syscall.EIO) {
			b.segCeil = len(pkts[at])
			continue
		}
		if err == nil {
			err = os.NewSyscallError("sendmmsg", b.errno)
		}
		at += int(bad.Iovlen)
	}
	return sent, msgs, err
}

// build is the one message builder: it packs a prefix of pkts into
// hdrs/iovs, one message per maximal run of consecutive equal-length
// datagrams shorter than segCeil (at most maxSegs segments and
// maxSegBytes payload), and returns the message count. A run of one is
// the plain single-iovec message with no control data; a longer run
// spans its iovecs and carries UDP_SEGMENT = that length.
func (b *batchConn) build(pkts [][]byte) (msgs int) {
	for used := 0; used < len(pkts) && used < len(b.iovs); msgs++ {
		size := len(pkts[used])
		run := 1
		if 0 < size && size < b.segCeil {
			limit := min(maxSegs, maxSegBytes/size, len(pkts)-used, len(b.iovs)-used)
			for run < limit && len(pkts[used+run]) == size {
				run++
			}
		}
		for i, p := range pkts[used : used+run] {
			b.iovs[used+i] = syscall.Iovec{Base: unsafe.SliceData(p), Len: uint64(size)}
		}
		h := &b.hdrs[msgs]
		h.hdr = syscall.Msghdr{
			Name:    &b.name[0],
			Namelen: uint32(len(b.name)),
			Iov:     &b.iovs[used],
			Iovlen:  uint64(run),
		}
		h.len = 0
		if run > 1 {
			c := &b.ctls[msgs]
			c.hdr = syscall.Cmsghdr{Len: syscall.SizeofCmsghdr + 2, Level: solUDP, Type: udpSegment}
			c.seg = uint16(size)
			h.hdr.Control = (*byte)(unsafe.Pointer(c))
			h.hdr.Controllen = uint64(unsafe.Sizeof(*c))
		}
		used += run
	}
	return msgs
}

// sendmmsg is sendBatch's RawConn callback: it hands hdrs[n:want] to
// the kernel, resuming after partial sends and EAGAIN, and stops at the
// first message the kernel rejects (errno says why hdrs[n] was not
// sent — sendmmsg reports an error only for the first message of a
// call).
func (b *batchConn) sendmmsg(fd uintptr) bool {
	for b.n < b.want {
		r1, _, errno := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&b.hdrs[b.n])), uintptr(b.want-b.n),
			syscall.MSG_DONTWAIT, 0, 0)
		switch errno {
		case 0:
			b.n += int(r1)
		case syscall.EAGAIN:
			return false // wait for writability, resume where we left off
		case syscall.EINTR: // nothing was sent; call again
		default:
			b.errno = errno
			return true
		}
	}
	return true
}

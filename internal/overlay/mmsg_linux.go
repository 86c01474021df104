//go:build linux && amd64

// recvmmsg/sendmmsg batched datagram I/O: one syscall moves a whole
// burst between the socket and the forwarding path. Raw syscall
// numbers are used (x/net is unavailable here); the build tag pins the
// ABI this file assumes, and mmsg_fallback.go serves everything else
// with one syscall per datagram.
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
)

// mmsghdr mirrors struct mmsghdr: a msghdr plus the kernel-filled
// received length. syscall.Msghdr is 56 bytes on linux/amd64, so the
// trailing pad keeps 8-byte stride alignment across the array.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   uint32
}

// batchConn owns the scatter-gather state for bursts on one UDP
// socket: fixed header/iovec arrays sized at the batch cap, reused for
// every call so the steady state allocates nothing. One goroutine per
// batchConn: the router's reader has one, each port's sender its own.
type batchConn struct {
	rc   syscall.RawConn
	hdrs []mmsghdr
	iovs []syscall.Iovec
	// bufs are the receive buffers, allocated by the first recvBatch: a
	// send-only batchConn (one per port) never pays n × maxDatagram.
	bufs [][]byte
	// to/name cache the last sendBatch destination's raw sockaddr. A
	// port always sends to the same *net.UDPAddr, so it is built once
	// (matched by pointer: callers never mutate an address in place).
	to   *net.UDPAddr
	name []byte
	// recvFn/sendFn are the RawConn callbacks, built once: a closure per
	// call costs three heap objects per syscall, which at width 1 is
	// per datagram. n (datagrams moved), want (datagrams to send) and
	// serr carry one call's arguments and results.
	recvFn, sendFn func(fd uintptr) bool
	n, want        int
	serr           error
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

// sendBatch transmits pkts to one destination with as few sendmmsg
// calls as possible (normally one). All packets of a port burst share
// the next hop, so a single sockaddr serves every header. It returns
// how many datagrams were handed to the kernel.
func (b *batchConn) sendBatch(pkts [][]byte, to *net.UDPAddr) (int, error) {
	if len(pkts) == 0 {
		return 0, nil
	}
	if to != b.to {
		b.to, b.name = to, sockaddrFor(to)
	}
	n := len(pkts)
	if n > len(b.hdrs) {
		n = len(b.hdrs)
	}
	for i := 0; i < n; i++ {
		b.iovs[i] = syscall.Iovec{Base: &pkts[i][0], Len: uint64(len(pkts[i]))}
		b.hdrs[i].hdr = syscall.Msghdr{
			Name:    &b.name[0],
			Namelen: uint32(len(b.name)),
			Iov:     &b.iovs[i],
			Iovlen:  1,
		}
		b.hdrs[i].len = 0
	}
	b.n, b.want, b.serr = 0, n, nil
	if err := b.rc.Write(b.sendFn); err != nil {
		return b.n, err
	}
	return b.n, b.serr
}

// sendmmsg is sendBatch's RawConn callback.
func (b *batchConn) sendmmsg(fd uintptr) bool {
	for b.n < b.want {
		r1, _, errno := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&b.hdrs[b.n])), uintptr(b.want-b.n),
			syscall.MSG_DONTWAIT, 0, 0)
		if errno == syscall.EAGAIN {
			return false // wait for writability, resume where we left off
		}
		if errno != 0 {
			b.serr = os.NewSyscallError("sendmmsg", errno)
			return true
		}
		b.n += int(r1)
	}
	return true
}

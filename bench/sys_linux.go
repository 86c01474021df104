//go:build linux && amd64

package main

import (
	"errors"
	"net"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// Raw syscall numbers for linux/amd64 (x/sys is not available here).
const (
	sysRecvmmsg  = 299
	sysSendmmsg  = 307
	rusageThread = 1 // RUSAGE_THREAD
)

// mmsgSupported reports that one syscall can move a whole burst.
const mmsgSupported = true

// mmsghdr mirrors struct mmsghdr on linux/amd64.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   uint32
}

// burstConn moves bursts of datagrams over one connected or bound UDP
// socket with recvmmsg/sendmmsg. The header, iovec and buffer arrays
// and the two callbacks handed to the raw connection are made once, so
// the generator allocates nothing per burst.
type burstConn struct {
	conn *net.UDPConn
	rc   syscall.RawConn
	hdrs []mmsghdr
	iovs []syscall.Iovec
	bufs [][]byte

	readFn, writeFn func(fd uintptr) bool
	wait            bool // recv: park until readable
	n               int  // recv: datagrams read; send: datagrams to write
	sent            int  // send: datagrams written so far
	errno           syscall.Errno
}

func newBurstConn(conn *net.UDPConn, burst, bufSize int) (*burstConn, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	b := &burstConn{conn: conn, rc: rc,
		hdrs: make([]mmsghdr, burst), iovs: make([]syscall.Iovec, burst), bufs: make([][]byte, burst)}
	for i := range b.bufs {
		b.bufs[i] = make([]byte, bufSize)
	}
	b.readFn = func(fd uintptr) bool {
		r1, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
			uintptr(unsafe.Pointer(&b.hdrs[0])), uintptr(len(b.hdrs)), syscall.MSG_DONTWAIT, 0, 0)
		switch {
		case errno == syscall.EAGAIN:
			return !b.wait
		case errno != 0:
			b.errno = errno
		default:
			b.n = int(r1)
		}
		return true
	}
	b.writeFn = func(fd uintptr) bool {
		for b.sent < b.n {
			r1, _, errno := syscall.Syscall6(sysSendmmsg, fd,
				uintptr(unsafe.Pointer(&b.hdrs[b.sent])), uintptr(b.n-b.sent), syscall.MSG_DONTWAIT, 0, 0)
			if errno == syscall.EAGAIN {
				return false
			}
			if errno != 0 {
				b.errno = errno
				return true
			}
			b.sent += int(r1)
		}
		return true
	}
	return b, nil
}

// recv reads up to the burst size in one recvmmsg. With wait set it
// parks on the netpoller until a datagram is readable (honouring the
// connection's read deadline); without, it returns 0 at once when the
// socket is empty, which is what a busy-polling generator wants.
func (b *burstConn) recv(wait bool) (int, error) {
	for i := range b.hdrs {
		b.iovs[i] = syscall.Iovec{Base: &b.bufs[i][0], Len: uint64(len(b.bufs[i]))}
		b.hdrs[i].hdr = syscall.Msghdr{Iov: &b.iovs[i], Iovlen: 1}
		b.hdrs[i].len = 0
	}
	b.wait, b.n, b.errno = wait, 0, 0
	if err := b.rc.Read(b.readFn); err != nil {
		return 0, err
	}
	if b.errno != 0 {
		return 0, os.NewSyscallError("recvmmsg", b.errno)
	}
	return b.n, nil
}

// buf returns the i-th datagram of the last recv.
func (b *burstConn) buf(i int) []byte { return b.bufs[i][:b.hdrs[i].len] }

// send writes pkts to the socket's connected peer, normally with one
// sendmmsg, and returns how many the kernel took.
func (b *burstConn) send(pkts [][]byte) (int, error) {
	n := len(pkts)
	if n > len(b.hdrs) {
		n = len(b.hdrs)
	}
	for i := 0; i < n; i++ {
		b.iovs[i] = syscall.Iovec{Base: &pkts[i][0], Len: uint64(len(pkts[i]))}
		b.hdrs[i].hdr = syscall.Msghdr{Iov: &b.iovs[i], Iovlen: 1}
		b.hdrs[i].len = 0
	}
	b.n, b.sent, b.errno = n, 0, 0
	if err := b.rc.Write(b.writeFn); err != nil {
		return b.sent, err
	}
	if b.errno != 0 {
		return b.sent, os.NewSyscallError("sendmmsg", b.errno)
	}
	return b.sent, nil
}

// threadCPU returns the CPU time (user+system, ns) of the calling OS
// thread. The caller must have locked its goroutine to the thread.
func threadCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return tvNs(ru.Utime) + tvNs(ru.Stime)
}

// cpuMask is a kernel CPU affinity mask, wide enough for 1024 CPUs.
type cpuMask [16]uint64

func setAffinity(tid int, m *cpuMask) error {
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); errno != 0 {
		return os.NewSyscallError("sched_setaffinity", errno)
	}
	return nil
}

// setProcessAffinity gives every thread of the process the mask.
// Threads inherit the mask of the thread that starts them, so the
// thread list is walked twice: one started by a not yet restricted
// thread during the first pass is caught by the second.
func setProcessAffinity(m *cpuMask) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			// A thread that exited since the listing is not an error.
			if err := setAffinity(tid, m); err != nil && !errors.Is(err, syscall.ESRCH) {
				return err
			}
		}
	}
	return nil
}

// allowedCPUs lists the CPUs the calling thread may run on.
func allowedCPUs() ([]int, error) {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return nil, os.NewSyscallError("sched_getaffinity", errno)
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	if len(cpus) == 0 {
		return nil, errors.New("sched_getaffinity: empty CPU mask")
	}
	return cpus, nil
}

func maskOf(cpus ...int) *cpuMask {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	return &m
}

// pinProcess restricts every thread of the process to the CPUs given.
func pinProcess(cpus ...int) error { return setProcessAffinity(maskOf(cpus...)) }

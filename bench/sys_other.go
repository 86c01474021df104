//go:build !linux || !amd64

package main

import (
	"errors"
	"net"
	"time"
)

// mmsgSupported is false where bursts degrade to one syscall per
// datagram; the generator then costs more next to the router.
const mmsgSupported = false

type burstConn struct {
	conn *net.UDPConn
	bufs [][]byte
	lens []int
}

func newBurstConn(conn *net.UDPConn, burst, bufSize int) (*burstConn, error) {
	b := &burstConn{conn: conn, bufs: make([][]byte, burst), lens: make([]int, burst)}
	for i := range b.bufs {
		b.bufs[i] = make([]byte, bufSize)
	}
	return b, nil
}

// recv reads one datagram. Without wait it polls with an already
// expired deadline, which costs a syscall per poll.
func (b *burstConn) recv(wait bool) (int, error) {
	if !wait {
		b.conn.SetReadDeadline(time.Now().Add(50 * time.Microsecond))
	}
	n, err := b.conn.Read(b.bufs[0])
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() && !wait {
			return 0, nil
		}
		return 0, err
	}
	b.lens[0] = n
	return 1, nil
}

func (b *burstConn) buf(i int) []byte { return b.bufs[i][:b.lens[i]] }

func (b *burstConn) send(pkts [][]byte) (int, error) {
	for i, p := range pkts {
		if _, err := b.conn.Write(p); err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}

// threadCPU is unavailable here: generator CPU is then not subtracted
// and cpu_us_per_pkt includes the driver.
func threadCPU() int64 { return 0 }

// CPU affinity is unavailable here: sock_fastpath then runs on whatever
// CPUs the scheduler picks and its timings are noisier.
var errNoAffinity = errors.New("CPU affinity is not supported on this platform")

func allowedCPUs() ([]int, error)  { return nil, errNoAffinity }
func pinProcess(cpus ...int) error { return errNoAffinity }

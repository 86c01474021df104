//go:build !linux || !amd64

// Portable stand-in for the linux/amd64 recvmmsg/sendmmsg path: the
// same batchConn surface backed by one syscall per datagram, so the
// one forwarding path runs unchanged everywhere — it just stops
// amortizing the socket crossings. This is the only datagram I/O on
// every platform but linux/amd64.
package overlay

import "net"

// batchConn carries only the one receive buffer (allocated by the
// first recvBatch, so send-only ports never pay for it); every call
// degenerates to the connection's per-datagram methods.
type batchConn struct {
	conn *net.UDPConn
	rbuf []byte
	rlen int
}

func newBatchConn(conn *net.UDPConn, _ int) (*batchConn, error) {
	return &batchConn{conn: conn}, nil
}

// recvBatch reads exactly one datagram (blocking); bursts never grow
// past one without recvmmsg.
func (b *batchConn) recvBatch() (int, error) {
	if b.rbuf == nil {
		b.rbuf = make([]byte, maxDatagram)
	}
	n, _, err := b.conn.ReadFromUDP(b.rbuf)
	if err != nil {
		return 0, err
	}
	b.rlen = n
	return 1, nil
}

// buf returns the received payload after recvBatch (i is always 0).
func (b *batchConn) buf(int) []byte { return b.rbuf[:b.rlen] }

// sendBatch writes each packet with its own syscall, so messages equal
// datagrams here. A packet the kernel rejects is skipped and the burst
// carries on behind it: sent counts the ones accepted, err is the
// first rejection.
func (b *batchConn) sendBatch(pkts [][]byte, to *net.UDPAddr) (sent, msgs int, err error) {
	for _, p := range pkts {
		if _, werr := b.conn.WriteToUDP(p, to); werr != nil {
			if err == nil {
				err = werr
			}
			continue
		}
		sent++
	}
	return sent, sent, err
}

//go:build linux && amd64

package overlay

import (
	"net"
	"syscall"
	"testing"
)

// TestSegmentRefusedFallsBackToPlain makes the real kernel refuse
// segmented messages (SO_NO_CHECK on the sending socket is one of the
// documented EINVAL cases) and holds sendBatch to its promise: every
// datagram of the refused runs still arrives, in order, as plain
// messages within the same call; the ceiling drops to the smallest
// refused length; and later bursts of that length or longer are built
// plain from the start.
func TestSegmentRefusedFallsBackToPlain(t *testing.T) {
	a, b, aConn, bConn := loopbackPair(t, net.IPv4(127, 0, 0, 1), 16)
	rc, err := aConn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1)
	})
	if serr != nil {
		t.Fatalf("SO_NO_CHECK: %v", serr)
	}
	to := bConn.LocalAddr().(*net.UDPAddr)

	pkts := datagrams(40, 40, 40, 1000, 1000, 7, 7)
	sent, msgs, err := a.sendBatch(pkts, to)
	if err != nil || sent != len(pkts) || msgs != len(pkts) {
		t.Fatalf("refused burst: sent %d in %d messages, err %v; want %d plain messages and no error",
			sent, msgs, err, len(pkts))
	}
	expectDatagrams(t, b, bConn, pkts)
	if a.segCeil != 7 {
		t.Errorf("segCeil = %d after refusals at 40 and 7, want 7", a.segCeil)
	}

	// Nothing at or above the ceiling is offered segmented again: the
	// builder alone yields one message per datagram.
	later := datagrams(40, 40, 1000, 1000, 7, 7)
	if got := a.build(later); got != len(later) {
		t.Errorf("builder made %d messages of %d datagrams under ceiling 7", got, len(later))
	}
	sent, msgs, err = a.sendBatch(later, to)
	if err != nil || sent != len(later) || msgs != len(later) {
		t.Fatalf("later burst: sent %d in %d messages, err %v", sent, msgs, err)
	}
	expectDatagrams(t, b, bConn, later)
	if a.segCeil != 7 {
		t.Errorf("segCeil moved to %d on a burst that offered no segments", a.segCeil)
	}
}

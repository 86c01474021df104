// Command tvaping is a capability-protected ping over the userspace
// overlay: it sends datagrams to a destination through a tvarouter,
// bootstrapping and renewing TVA capabilities transparently, and
// reports round-trip times and the shim's authorization state.
//
// Echo server:
//
//	tvaping -addr 10.0.0.2 -listen 127.0.0.1:7002 -gw 127.0.0.1:7000 -serve
//
// Client:
//
//	tvaping -addr 10.0.0.1 -listen 127.0.0.1:7001 -gw 127.0.0.1:7000 \
//	    -dst 10.0.0.2 -count 10
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"tva/internal/core"
	"tva/internal/overlay"
	"tva/internal/packet"
)

func main() {
	addrStr := flag.String("addr", "10.0.0.1", "this host's TVA address")
	listen := flag.String("listen", "127.0.0.1:0", "UDP address to bind")
	gw := flag.String("gw", "127.0.0.1:7000", "gateway router's UDP address")
	dstStr := flag.String("dst", "", "destination TVA address (client mode)")
	count := flag.Int("count", 5, "pings to send")
	interval := flag.Duration("interval", 500*time.Millisecond, "ping interval")
	serve := flag.Bool("serve", false, "run as echo server")
	flag.Parse()

	addr, err := parseAddr(*addrStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var policy core.Policy
	if *serve {
		policy = core.NewServerPolicy()
	} else {
		policy = core.NewClientPolicy()
	}
	h, err := overlay.NewHost(overlay.HostConfig{
		Addr:    addr,
		Listen:  *listen,
		Gateway: *gw,
		Policy:  policy,
		Shim:    core.ShimConfig{AutoReturn: true, CollectHops: true},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer h.Close()
	fmt.Printf("tvaping %s on %s via %s\n", addr, h.UDPAddr(), *gw)

	if *serve {
		for msg := range h.Inbox {
			// Echo the payload back; the reply direction bootstraps
			// its own capabilities.
			if err := h.Send(msg.Src, msg.Payload); err != nil {
				fmt.Fprintln(os.Stderr, "echo:", err)
			}
		}
		return
	}

	dst, err := parseAddr(*dstStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "client mode needs -dst:", err)
		os.Exit(2)
	}
	for i := 0; i < *count; i++ {
		payload := []byte(fmt.Sprintf("ping %d %d", i, time.Now().UnixNano()))
		start := time.Now()
		if err := h.Send(dst, payload); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		select {
		case msg := <-h.Inbox:
			state := "capability"
			if !h.HasCaps(dst) {
				state = "request"
			}
			detail := ""
			if msg.Demoted {
				if d, ok := h.LastDemotion(dst); ok {
					detail = fmt.Sprintf(" (%s at router %d)", d.Reason, d.Router)
				}
			}
			rtt := time.Since(start).Round(time.Microsecond)
			fmt.Printf("reply from %s: seq=%d rtt=%v mode=%s demoted=%v%s%s\n",
				msg.Src, i, rtt, state, msg.Demoted, detail, hopBreakdown(h.HopReport(dst), rtt))
		case <-time.After(2 * time.Second):
			// A demotion notice carried back on the reverse channel
			// tells us which router stopped honouring the path and why;
			// the last hop report shows where the queue wait was before
			// the path went dark.
			hops := hopBreakdown(h.HopReport(dst), 0)
			if d, ok := h.LastDemotion(dst); ok {
				fmt.Printf("timeout seq=%d (path demoted: %s at router %d)%s\n", i, d.Reason, d.Router, hops)
			} else {
				fmt.Printf("timeout seq=%d%s\n", i, hops)
			}
		}
		time.Sleep(*interval)
	}
	st := h.Stats()
	fmt.Printf("shim: requests=%d grants=%d regular=%d nonce-only=%d renewals=%d\n",
		st.RequestsSent, st.GrantsReceived, st.RegularSent, st.NonceOnlySent, st.RenewalsSent)
}

// hopBreakdown renders the per-hop queue-wait report that capability
// routers stamp into requests (CollectHops): which router the path
// crosses and how long packets currently wait in its output queue. The
// remainder of the RTT, when known, is propagation plus endpoint time.
func hopBreakdown(hops []packet.HopStamp, rtt time.Duration) string {
	if len(hops) == 0 {
		return ""
	}
	var queued time.Duration
	s := " path=["
	for i, st := range hops {
		if i > 0 {
			s += " "
		}
		w := time.Duration(st.WaitUs) * time.Microsecond
		queued += w
		s += fmt.Sprintf("router%d:%v", st.Router, w)
	}
	s += "]"
	if rtt > 0 {
		s += fmt.Sprintf(" queued=%v other=%v", queued, (rtt - queued).Round(time.Microsecond))
	}
	return s
}

func parseAddr(s string) (packet.Addr, error) {
	var a, b, c, d byte
	if _, err := fmt.Sscanf(s, "%d.%d.%d.%d", &a, &b, &c, &d); err != nil {
		return 0, fmt.Errorf("bad TVA address %q (want dotted quad)", s)
	}
	return packet.AddrFrom(a, b, c, d), nil
}

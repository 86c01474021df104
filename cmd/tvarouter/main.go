// Command tvarouter runs a userspace TVA capability router over UDP —
// the inline packet-processing box of the paper's deployment story
// (§8). Example:
//
//	tvarouter -listen 127.0.0.1:7000 \
//	    -route 10.0.0.1=127.0.0.1:7001 \
//	    -route 10.0.0.2=127.0.0.2:7002 \
//	    -rate 10000000 \
//	    -metrics 127.0.0.1:9100
//
// Routes map TVA addresses to next-hop UDP addresses (another router
// or a tvaping/overlay host proxy). With -metrics the router serves
// Prometheus text exposition at /metrics (watch it live with tvatop)
// and logs attack-onset health transitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"tva/internal/core"
	"tva/internal/flowstats"
	"tva/internal/metrics"
	"tva/internal/overlay"
	"tva/internal/packet"
	"tva/internal/tvatime"
)

type routeList []string

func (r *routeList) String() string     { return strings.Join(*r, ",") }
func (r *routeList) Set(v string) error { *r = append(*r, v); return nil }

func main() {
	listen := flag.String("listen", "127.0.0.1:7000", "UDP address to bind")
	rate := flag.Int64("rate", 0, "per-neighbour link pacing in bits/s (0 = unpaced)")
	reqFrac := flag.Float64("request-fraction", 0.05, "request channel share of the link")
	stats := flag.Duration("stats", 10*time.Second, "stats print interval (0 = never)")
	debugAddr := flag.String("pprof", "", "serve pprof profiles at /debug/pprof, plus /metrics and /flows, on this address (e.g. 127.0.0.1:6060)")
	metricsAddr := flag.String("metrics", "", "serve Prometheus text exposition at /metrics on this address (e.g. 127.0.0.1:9100)")
	metricsEvery := flag.Duration("metrics-interval", time.Second, "metrics sampling / health detector tick interval")
	metricsWindow := flag.Int("metrics-window", 600, "retained metrics rows (ticks)")
	batch := flag.Int("batch", 1, "burst width of the data path: datagrams per recvmmsg/sendmmsg (where available), engine and scheduler crossing; equal-length runs of a send burst leave as one UDP_SEGMENT message where the kernel accepts it; 0/1 = one")
	var routes routeList
	flag.Var(&routes, "route", "addr=udphost:port (repeatable)")
	def := flag.String("default", "", "default next hop udphost:port")
	flag.Parse()

	r, err := overlay.NewRouter(overlay.RouterConfig{
		Listen:          *listen,
		LinkBps:         *rate,
		RequestFraction: *reqFrac,
		Batch:           *batch,
		Core:            core.RouterConfig{TrustBoundary: true},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer r.Close()

	for _, spec := range routes {
		addrStr, via, ok := strings.Cut(spec, "=")
		if !ok {
			fmt.Fprintf(os.Stderr, "bad -route %q (want addr=host:port)\n", spec)
			os.Exit(2)
		}
		addr, err := parseAddr(addrStr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := r.AddRoute(addr, via); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *def != "" {
		if err := r.SetDefaultRoute(*def); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	fmt.Printf("tvarouter listening on %s (%d routes, batch=%d)\n",
		r.Addr(), len(routes), *batch)

	// Every background goroutine below selects on stop and joins bg, so
	// shutdown is a close + Wait, not a process-exit shrug; the goleak
	// analyzer (internal/lint) enforces exactly this shape.
	stop := make(chan struct{})
	var bg sync.WaitGroup
	var listeners []net.Listener

	// The registry is built after every route is installed, so each
	// neighbour port gets its labelled series; it is the single source
	// of truth behind /metrics and the health engine.
	m := r.Metrics(*metricsWindow)
	m.Health.OnTransition = func(tr metrics.Transition) {
		fmt.Printf("health: %s\n", tr)
	}
	m.Tick(tvatime.WallClock{}.Now()) // seal + first row before anything scrapes
	bg.Add(1)
	go func() {
		defer bg.Done()
		t := time.NewTicker(*metricsEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				m.Tick(tvatime.WallClock{}.Now())
			case <-stop:
				return
			}
		}
	}()

	// /metrics (and the per-sender /flows JSON) on the default mux too,
	// so -pprof alone also exposes them.
	http.Handle("/metrics", metrics.Handler(m.Registry))
	http.Handle("/flows", flowsHandler(r))
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "metrics:", err)
			os.Exit(1)
		}
		listeners = append(listeners, ln)
		mux := http.NewServeMux()
		mux.Handle("/metrics", metrics.Handler(m.Registry))
		mux.Handle("/flows", flowsHandler(r))
		bg.Add(1)
		go func() {
			defer bg.Done()
			// Serve returns once ln is closed at shutdown.
			if err := http.Serve(ln, mux); err != nil && !isClosed(err) {
				fmt.Fprintln(os.Stderr, "metrics:", err)
			}
		}()
		// The resolved address (not the flag) so :0 works in scripts.
		fmt.Printf("metrics on http://%s/metrics (per-sender flows at /flows)\n", ln.Addr())
	}

	if *debugAddr != "" {
		// /debug/pprof on the default mux; the package registers
		// itself on import.
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pprof:", err)
			os.Exit(1)
		}
		listeners = append(listeners, ln)
		bg.Add(1)
		go func() {
			defer bg.Done()
			if err := http.Serve(ln, nil); err != nil && !isClosed(err) {
				fmt.Fprintln(os.Stderr, "pprof:", err)
			}
		}()
		fmt.Printf("pprof on http://%s/debug/pprof\n", ln.Addr())
	}

	if *stats > 0 {
		bg.Add(1)
		go func() {
			defer bg.Done()
			t := time.NewTicker(*stats)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					fmt.Printf("stats: received=%d forwarded=%d unroutable=%d malformed=%d health=%s\n",
						r.Received.Load(), r.Forwarded.Load(), r.Unroutable.Load(),
						r.Malformed.Load(), m.Health.State())
				case <-stop:
					return
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	close(stop)
	for _, ln := range listeners {
		ln.Close()
	}
	bg.Wait()
}

// flowRow is one /flows table entry: a tracked sender's aggregates at
// this router. err bounds the space-saving overcount on bytes (true
// count is within [bytes-err, bytes]).
type flowRow struct {
	Src       string `json:"src"`
	Path      uint16 `json:"path,omitempty"` // non-zero: request traffic keyed by path-id
	Bytes     uint64 `json:"bytes"`
	Err       uint64 `json:"err,omitempty"`
	Pkts      uint64 `json:"pkts"`
	Drops     uint64 `json:"drops,omitempty"`
	Demotions uint64 `json:"demotions,omitempty"`
}

// flowsHandler serves the per-sender heavy-hitter table as JSON. Each
// request takes its own FlowSnapshot (stateless — no shared window
// state with the metrics ticker), so the fairness pair here is
// cumulative over the tracked senders' total bytes, while the
// registry's fairness gauges are per metrics window.
func flowsHandler(r *overlay.Router) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		rows, total := r.FlowSnapshot()
		bytes := make([]uint64, len(rows))
		out := make([]flowRow, len(rows))
		for i, s := range rows {
			bytes[i] = s.Bytes
			out[i] = flowRow{
				Src:       s.Key.Src().String(),
				Path:      uint16(s.Key.Path()),
				Bytes:     s.Bytes,
				Err:       s.Err,
				Pkts:      s.Pkts,
				Drops:     s.Drops,
				Demotions: s.Demotions,
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{
			"tracked":      len(rows),
			"total_bytes":  total,
			"jain":         flowstats.JainIndex(bytes),
			"maxmin_ratio": flowstats.MaxMinRatio(bytes),
			"flows":        out,
		})
	})
}

// isClosed reports the http.Serve error produced by closing its
// listener during shutdown — expected, not worth logging.
func isClosed(err error) bool {
	return errors.Is(err, net.ErrClosed)
}

func parseAddr(s string) (packet.Addr, error) {
	var a, b, c, d byte
	if _, err := fmt.Sscanf(s, "%d.%d.%d.%d", &a, &b, &c, &d); err != nil {
		return 0, fmt.Errorf("bad TVA address %q (want dotted quad)", s)
	}
	return packet.AddrFrom(a, b, c, d), nil
}

// Command bench is the repository's benchmark: four workloads, five
// end-to-end metrics, a per-layer ledger. It measures the system from
// outside, through the public functions of tva/internal/..., and adds
// no hook to any of them. See README.md in this directory.
//
//	bench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//	bench compare <a> <b>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloads maps each workload name to its runner. A runner fills the
// report and, in a traced pass, returns the span ring to write out.
var workloads = []struct {
	name string
	run  func(runCfg, *report) (*spanRing, error)
}{
	{"sock_fastpath", runFastpath},
	{"sock_flood", runFlood},
	{"core_mix", runCoreMix},
	{"sim_fig8", runSimFig8},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var c runCfg
	var trace int
	flag.StringVar(&c.workload, "workload", "all", "sock_fastpath, sock_flood, core_mix, sim_fig8 or all")
	flag.Int64Var(&c.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&c.seconds, "seconds", 20, "how long each workload measures")
	flag.IntVar(&trace, "trace", 0, "1: traced pass, prints the per-layer metrics and writes the span file")
	flag.StringVar(&c.outDir, "out", filepath.Join("bench", "out"), "directory for result and trace files")
	flag.Parse()
	c.trace = trace != 0
	if c.seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1 and there are no positional arguments")
		os.Exit(2)
	}
	if err := loopbackUDP(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: loopback UDP is not usable here, refusing to run: %v\n", err)
		os.Exit(2)
	}
	ran := false
	code := 0
	for _, w := range workloads {
		if c.workload != "all" && c.workload != w.name {
			continue
		}
		ran = true
		wc := c
		wc.workload = w.name
		correct, err := runOne(wc, w.run)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		}
		if !correct {
			code = 1
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "bench: no workload %q\n", c.workload)
		os.Exit(2)
	}
	os.Exit(code)
}

// loopbackUDP sends one datagram to itself over 127.0.0.1. Without a
// working loopback the socket workloads would report zeros, so the
// run refuses to start instead.
func loopbackUDP() error {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := conn.WriteToUDP([]byte("tva"), conn.LocalAddr().(*net.UDPAddr)); err != nil {
		return err
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	_, _, err = conn.ReadFromUDP(make([]byte, 8))
	return err
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is what a run leaves in the output directory: the result
// line plus everything needed to judge and reproduce it.
type resultFile struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Env        environment        `json:"env"`
	Result     resultLine         `json:"result"`
	EndToEnd   map[string]summary `json:"end_to_end"`
	PerLayer   map[string]float64 `json:"per_layer"`
	Detail     map[string]any     `json:"detail,omitempty"`
	Violations []string           `json:"violations,omitempty"`
	Claim      any                `json:"claim"` // always null: this benchmark claims no gain
}

// environment is recorded in every result file.
type environment struct {
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	GOOS        string  `json:"goos"`
	GOARCH      string  `json:"goarch"`
	Kernel      string  `json:"kernel"`
	GitRevision string  `json:"git_revision"`
	Substrate   string  `json:"substrate"`
	Mmsg        bool    `json:"mmsg"`
	CalibAESNs  float64 `json:"calib_aes_ns"`
}

func readEnv(calib float64) environment {
	return environment{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Kernel: firstLine("/proc/sys/kernel/osrelease"),
		GitRevision: gitRevision(), Substrate: "loopback", Mmsg: mmsgSupported, CalibAESNs: calib}
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return line
}

// gitRevision reads HEAD without running git; a checkout that is not
// a repository says so.
func gitRevision() string {
	head := firstLine(filepath.Join(".git", "HEAD"))
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		return firstLine(filepath.Join(".git", ref))
	}
	return head
}

// runOne runs one workload, prints its table and result line, writes
// its files, and reports whether the run was correct. On an error no
// result line is printed.
func runOne(c runCfg, run func(runCfg, *report) (*spanRing, error)) (correct bool, err error) {
	rep := newReport()
	calib := calibAES()
	ring, err := run(c, rep)
	if err != nil {
		return false, err
	}
	if c.trace {
		if err := ledger(c.seed, rep.layer); err != nil {
			return false, fmt.Errorf("layer ledger: %w", err)
		}
	}
	rep.layer["bench.calib_aes_ns"] = calib
	rep.layer["bench.rss_peak_mb"] = peakRSSMB()
	rep.layer["bench.fail_frac"] = float64(rep.failed) / float64(max(rep.attempted, 1))

	res := resultFile{Workload: c.workload, Seed: c.seed, Seconds: c.seconds, Trace: c.trace, Env: readEnv(calib),
		EndToEnd: map[string]summary{}, PerLayer: map[string]float64{}, Detail: rep.detail}
	line := resultLine{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	fmt.Printf("workload %s  seed %d  %gs  trace %v  substrate loopback\n", c.workload, c.seed, c.seconds, c.trace)
	fmt.Printf("%-40s %14s %-7s %14s %14s %5s\n", "end-to-end metric", "median", "unit", "q1", "q3", "n")
	for _, m := range endToEnd {
		s := summarize(rep.e2e[m.name])
		if s.N == 0 {
			rep.violate("no sample of %s", m.name)
		}
		res.EndToEnd[m.name] = jsonSafe(s)
		fmt.Printf("%-40s %14.4f %-7s %14.4f %14.4f %5d\n", m.name, s.Median, m.unit, s.Q1, s.Q3, s.N)
		if !c.trace {
			line.Metrics[m.name] = metricValue{finiteOr(s.Median, -1), m.unit}
		}
	}
	// The result file keeps whatever per-layer counters the run took
	// anyway; the full ledger is printed by a traced pass only.
	for name, v := range rep.layer {
		res.PerLayer[name] = finiteOr(v, -1)
	}
	if c.trace {
		fmt.Printf("%-40s %14s %-7s\n", "per-layer metric", "value", "unit")
		for _, m := range perLayer {
			v := finiteOr(rep.layer[m.name], -1)
			res.PerLayer[m.name] = v
			line.Metrics[m.name] = metricValue{v, m.unit}
			fmt.Printf("%-40s %14.4f %-7s\n", m.name, v, m.unit)
		}
	}
	for _, v := range rep.violations {
		fmt.Printf("VIOLATION %s\n", v)
	}
	line.Correct = len(rep.violations) == 0 && rep.attempted > 0
	res.Result, res.Violations = line, rep.violations

	suffix := ""
	if c.trace {
		suffix = "_trace"
		path := filepath.Join(c.outDir, "trace_"+c.workload+".json")
		if err := ring.write(path, c.workload, c.seed, rep.counters); err != nil {
			return false, err
		}
	}
	if err := writeJSON(filepath.Join(c.outDir, fmt.Sprintf("result_%s_%d%s.json", c.workload, c.seed, suffix)), res); err != nil {
		return false, err
	}
	out, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Println(string(out))
	return line.Correct, nil
}

// jsonSafe replaces the infinities a lost packet puts into a summary,
// which JSON cannot carry, by -1.
func jsonSafe(s summary) summary {
	s.Median, s.Q1, s.Q3 = finiteOr(s.Median, -1), finiteOr(s.Q1, -1), finiteOr(s.Q3, -1)
	s.Slices = append([]float64(nil), s.Slices...)
	for i, v := range s.Slices {
		s.Slices[i] = finiteOr(v, -1)
	}
	return s
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

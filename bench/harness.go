package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"tva/internal/packet"
)

// runCfg is one invocation: a workload, a seed, how long to measure.
type runCfg struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

// report is what a workload hands back: per-slice values of every
// end-to-end metric, per-layer values (traced pass), the operation
// count and every correctness violation it saw.
type report struct {
	e2e        map[string][]float64
	layer      map[string]float64
	attempted  int64
	failed     int64
	violations []string
	// detail carries per-layer sample sets worth keeping in the result
	// file (latency tails with their sample counts and the like).
	detail map[string]any
	// counters are program counters read at phase boundaries of a
	// traced pass; they go into the trace file.
	counters []counterSnapshot
}

func newReport() *report {
	return &report{e2e: map[string][]float64{}, layer: map[string]float64{}, detail: map[string]any{}}
}

func (r *report) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

func (r *report) add(metric string, v float64) { r.e2e[metric] = append(r.e2e[metric], v) }

// epoch anchors the monotonic clock every span and latency is read
// from; values are nanoseconds since process start.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

func tvNs(tv syscall.Timeval) int64 { return int64(tv.Sec)*1e9 + int64(tv.Usec)*1e3 }

// procCPU is the process's CPU time so far (user+system, ns).
func procCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvNs(ru.Utime) + tvNs(ru.Stime)
}

// peakRSSMB is the process's peak resident set in MB (Linux reports
// ru_maxrss in KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// medianSetup builds a workload's state `times` times, tearing down
// all but the last, and reports each build's duration in seconds. Set
// up is measured several times in one run because a single set-up is
// tens of milliseconds, well inside one scheduler stall on a shared
// machine.
func medianSetup[T any](times int, build func() (T, error), teardown func(T)) (T, []float64, error) {
	var last T
	durs := make([]float64, 0, times)
	for i := 0; i < times; i++ {
		if i > 0 {
			teardown(last)
		}
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, durs, err
		}
		durs = append(durs, time.Since(start).Seconds())
		last = v
	}
	return last, durs, nil
}

// setupRepeats is how many times each run sets its workload up.
const setupRepeats = 9

// oneCPU confines the process to one P and one CPU, the last it may use
// (the first takes most of a virtual machine's interrupts), until the
// returned function is called. On this kind of machine (a few virtual
// CPUs of a shared host) waking a thread on another, halted CPU costs
// 10-30 us of CPU time, and that cost changes by the minute with what
// the host's other tenants do: threads that hand packets to each other
// across CPUs measure the hypervisor. On one CPU every hand-off is a
// context switch, which costs the same each time. Where the affinity
// calls are refused the run goes on unpinned and says so in its result
// file.
func oneCPU(rep *report) func() {
	prev := runtime.GOMAXPROCS(1)
	restore := func() { runtime.GOMAXPROCS(prev) }
	cpus, err := allowedCPUs()
	if err == nil {
		err = pinProcess(cpus[len(cpus)-1])
	}
	if err != nil {
		rep.detail["placement"] = "unpinned: " + err.Error()
		return restore
	}
	rep.detail["placement"] = fmt.Sprintf("process on cpu %d, GOMAXPROCS 1", cpus[len(cpus)-1])
	return func() {
		pinProcess(cpus...)
		restore()
	}
}

// leakCheck snapshots the packet pool gauge and the goroutine count
// before a run and verifies afterwards that both are back: a packet or
// goroutine the program keeps after Close is a leak.
type leakCheck struct {
	live       int64
	goroutines int
}

func startLeakCheck() leakCheck {
	return leakCheck{live: packet.Live(), goroutines: runtime.NumGoroutine()}
}

// done returns the pool delta and reports violations; a pool that did
// not return is one only when poolMustReturn is set. Goroutines get a
// moment to exit: Close waits for them, but the runtime counts one
// until it has fully unwound.
func (l leakCheck) done(rep *report, poolMustReturn bool) int64 {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > l.goroutines && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > l.goroutines {
		rep.violate("goroutines: %d before the run, %d after", l.goroutines, n)
	}
	delta := packet.Live() - l.live
	if delta != 0 && poolMustReturn {
		rep.violate("packet pool: %d packets not released after the run", delta)
	}
	return delta
}

// memMark reads the allocator counters at a phase boundary (it stops
// the world, so never inside a timed slice).
type memMark struct {
	mallocs uint64
	pauseNs uint64
}

func markMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{mallocs: ms.Mallocs, pauseNs: ms.PauseTotalNs}
}

// slicer cuts a timed phase into equal wall-time slices and keeps,
// per slice, the packet count, the wall time actually covered and the
// program's CPU time (process minus generator thread).
type slicer struct {
	start, length int64 // ns
	n             int
	cur           int
	sliceStart    int64
	cpuStart      int64
	pkts          int64
	genCPU        func() int64

	Pkts []float64
	Wall []float64 // seconds
	CPU  []float64 // seconds of program CPU
}

func newSlicer(start, durNs int64, n int, genCPU func() int64) *slicer {
	s := &slicer{start: start, length: durNs / int64(n), n: n, sliceStart: start, genCPU: genCPU}
	s.cpuStart = procCPU() - genCPU()
	return s
}

// tick accounts pkts more packets at time t and closes the current
// slice if t is past its end. It reports whether the phase is over.
func (s *slicer) tick(t int64, pkts int) bool {
	s.pkts += int64(pkts)
	if s.cur >= s.n {
		return true
	}
	if t < s.start+int64(s.cur+1)*s.length {
		return false
	}
	cpu := procCPU() - s.genCPU()
	s.Pkts = append(s.Pkts, float64(s.pkts))
	s.Wall = append(s.Wall, float64(t-s.sliceStart)/1e9)
	s.CPU = append(s.CPU, float64(cpu-s.cpuStart)/1e9)
	s.pkts, s.sliceStart, s.cpuStart = 0, t, cpu
	// A stall can jump over whole slices; they are dropped, not
	// recorded as zeros, and the sample count says so.
	s.cur = int((t - s.start) / s.length)
	return s.cur >= s.n
}

// kpps and cpuUs turn the slices into the two per-packet rates.
func (s *slicer) kpps() []float64 {
	out := make([]float64, 0, len(s.Pkts))
	for i := range s.Pkts {
		if s.Wall[i] > 0 {
			out = append(out, s.Pkts[i]/s.Wall[i]/1e3)
		}
	}
	return out
}

func (s *slicer) cpuUs() []float64 {
	out := make([]float64, 0, len(s.Pkts))
	for i := range s.Pkts {
		if s.Pkts[i] > 0 {
			out = append(out, s.CPU[i]*1e6/s.Pkts[i])
		}
	}
	return out
}

// bySlice sorts per-packet latencies (indexed like dueOf, +Inf for a
// lost packet) into n equal slices of the phase by due time.
func bySlice(dueOf []int64, latUs []float64, start, durNs int64, n int) [][]float64 {
	out := make([][]float64, n)
	for i, due := range dueOf {
		s := int((due - start) / (durNs / int64(n)))
		if s >= n {
			s = n - 1
		}
		out[s] = append(out[s], latUs[i])
	}
	return out
}

// addLatency reports each non-empty slice's median latency and share
// delivered into rep and returns the delivered count of each.
func addLatency(rep *report, slices [][]float64) []int {
	var delivered []int
	for _, lat := range slices {
		if len(lat) == 0 {
			continue
		}
		got := 0
		for _, l := range lat {
			if l != inf {
				got++
			}
		}
		rep.add("lat_p50_us", median(lat))
		rep.add("goodput_frac", float64(got)/float64(len(lat)))
		delivered = append(delivered, got)
	}
	return delivered
}

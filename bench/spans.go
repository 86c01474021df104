package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// The benchmark's own tracer: spans around every call the benchmark
// makes into a layer. Spans inside internal/ are a later change, so a
// layer's time here is what its public entry point costs the caller.

// The span names the workloads use, indexes into spanNames.
const (
	spGenSend uint8 = iota
	spGenRecv
	spUnmarshal
	spProcess
	spEnqueue
	spDequeue
	spMarshal
	spBurst
	spSimRun
)

var spanNames = []string{"gen.send", "gen.recv", "packet.unmarshal", "core.process",
	"sched.enqueue", "sched.dequeue", "packet.marshal", "burst", "exp.run"}

// span is one timed call. Times are nanoseconds since the run started;
// Parent indexes the enclosing span in the ring (-1 for a root) and
// Burst ties the spans of one packet burst together.
type span struct {
	Name   uint8
	Parent int32
	Start  int64
	End    int64
	Burst  int64
}

// spanRing holds the last cap(buf) spans in memory and, because a ring
// forgets, keeps running per-name totals for the whole run: dur is the
// summed duration, self the duration minus what child spans covered.
type spanRing struct {
	names []string
	buf   []span
	next  int64 // spans ever begun
	dur   []int64
	self  []int64
	count []int64
}

func newSpanRing(capacity int, names ...string) *spanRing {
	return &spanRing{names: names, buf: make([]span, capacity),
		dur: make([]int64, len(names)), self: make([]int64, len(names)), count: make([]int64, len(names))}
}

// begin opens a span and returns its handle for end and for children.
func (r *spanRing) begin(name uint8, parent int32, burst, now int64) int32 {
	i := r.next % int64(len(r.buf))
	r.buf[i] = span{Name: name, Parent: parent, Start: now, Burst: burst}
	r.next++
	return int32(i)
}

// end closes a span: its duration is added to its own name and taken
// out of its parent's self time. The parent must still be in the ring,
// which holds as long as a parent has fewer descendants than the ring
// has slots.
func (r *spanRing) end(h int32, now int64) {
	s := &r.buf[h]
	s.End = now
	d := now - s.Start
	r.dur[s.Name] += d
	r.self[s.Name] += d
	r.count[s.Name]++
	if s.Parent >= 0 {
		r.self[r.buf[s.Parent].Name] -= d
	}
}

// step closes span h and opens the next stage under root at the same
// instant, so stages tile the burst without gaps.
func (r *spanRing) step(h int32, name uint8, root int32, id int64) int32 {
	t := nanotime()
	r.end(h, t)
	return r.begin(name, root, id, t)
}

// selfNs returns the whole-run self time by span name.
func (r *spanRing) selfNs() map[string]int64 {
	m := make(map[string]int64, len(r.names))
	for i, n := range r.names {
		m[n] = r.self[i]
	}
	return m
}

// counterSnapshot is a set of program counters read at a phase
// boundary, so ratios can be taken over exactly one phase.
type counterSnapshot struct {
	At     string             `json:"at"`
	TimeNs int64              `json:"time_ns"`
	Values map[string]float64 `json:"values"`
}

type traceFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Names    []string          `json:"names"`
	SelfNs   map[string]int64  `json:"self_ns"`
	DurNs    map[string]int64  `json:"dur_ns"`
	Count    map[string]int64  `json:"count"`
	Counters []counterSnapshot `json:"counters"`
	Dropped  int64             `json:"spans_overwritten"`
	Spans    []traceSpan       `json:"spans"`
}

type traceSpan struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Burst  int64  `json:"burst"`
}

// write dumps the retained spans, oldest first, with the whole-run
// totals and counter snapshots.
func (r *spanRing) write(path, workload string, seed int64, counters []counterSnapshot) error {
	tf := traceFile{Workload: workload, Seed: seed, Names: r.names, SelfNs: r.selfNs(),
		DurNs: map[string]int64{}, Count: map[string]int64{}, Counters: counters}
	for i, n := range r.names {
		tf.DurNs[n], tf.Count[n] = r.dur[i], r.count[i]
	}
	size := int64(len(r.buf))
	first := int64(0)
	if r.next > size {
		first = r.next - size
		tf.Dropped = first
	}
	for id := first; id < r.next; id++ {
		s := r.buf[id%size]
		parent := int64(-1)
		if s.Parent >= 0 {
			// Recover the parent's id: the most recent span before
			// this one that sits in that ring slot.
			parent = id - ((id-int64(s.Parent))%size+size)%size
			if parent < first {
				parent = -1
			}
		}
		tf.Spans = append(tf.Spans, traceSpan{ID: id, Name: r.names[s.Name], Parent: parent,
			Start: s.Start, End: s.End, Burst: s.Burst})
	}
	sort.SliceStable(tf.Spans, func(i, j int) bool { return tf.Spans[i].Start < tf.Spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSpanSelfTime(t *testing.T) {
	r := newSpanRing(16, "burst", "decode", "process", "lookup")
	// burst [0,100] { decode [0,30], process [30,90] { lookup [40,60] } }
	b := r.begin(0, -1, 1, 0)
	d := r.begin(1, b, 1, 0)
	r.end(d, 30)
	p := r.begin(2, b, 1, 30)
	l := r.begin(3, p, 1, 40)
	r.end(l, 60)
	r.end(p, 90)
	r.end(b, 100)
	self := r.selfNs()
	want := map[string]int64{"burst": 10, "decode": 30, "process": 40, "lookup": 20}
	var sum int64
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
		sum += self[name]
	}
	if sum != 100 {
		t.Fatalf("self times sum to %d, the root span lasted 100", sum)
	}
	if r.dur[2] != 60 || r.count[2] != 1 {
		t.Fatalf("process: dur %d count %d, want 60 and 1", r.dur[2], r.count[2])
	}
}

func TestSpanRingKeepsTotalsPastItsCapacity(t *testing.T) {
	r := newSpanRing(4, "burst", "stage")
	for i := int64(0); i < 10; i++ {
		b := r.begin(0, -1, i, i*10)
		s := r.begin(1, b, i, i*10+2)
		r.end(s, i*10+7)
		r.end(b, i*10+10)
	}
	self := r.selfNs()
	if self["burst"] != 50 || self["stage"] != 50 {
		t.Fatalf("self %v, want 50 each over ten bursts", self)
	}
	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := r.write(path, "w", 3, []counterSnapshot{{At: "end", Values: map[string]float64{"x": 1}}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) != 4 || tf.Dropped != 16 || tf.Count["burst"] != 10 {
		t.Fatalf("kept %d spans, overwrote %d, counted %d bursts; want 4, 16, 10", len(tf.Spans), tf.Dropped, tf.Count["burst"])
	}
	// The retained stage spans still name their parents.
	for _, s := range tf.Spans {
		if s.Name == "stage" && s.Parent != s.ID-1 {
			t.Fatalf("stage span %d has parent %d, want %d", s.ID, s.Parent, s.ID-1)
		}
	}
}

package metrics

import (
	"bytes"
	"strings"
	"testing"

	"tva/internal/tvatime"
)

// FuzzParseProm holds the exposition parser tvatop scrapes with to two
// properties on arbitrary input: it never panics, and every sample it
// accepts has an ID that re-parses, as a sample line of its own, to
// the same ID.
func FuzzParseProm(f *testing.F) {
	reg := New(4)
	if err := reg.Gauge(NameQueuePkts, L("class", "request"), "Queue.", func() float64 { return 3 }); err != nil {
		f.Fatal(err)
	}
	if err := reg.Counter(NameSchedDrops, L("reason", `a"b\c`+"\n"), "Drops.", func() float64 { return 1.5 }); err != nil {
		f.Fatal(err)
	}
	reg.Tick(tvatime.Time(tvatime.Second))
	var expo bytes.Buffer
	if err := reg.WritePrometheus(&expo); err != nil {
		f.Fatal(err)
	}
	f.Add(expo.String())
	f.Add("# some comment\nm{a=\"b\",c=\"d\"} 1.5 1700000000\nm2 +Inf\n")
	f.Add("m{} NaN\n# TYPE m gauge\n")
	f.Add("metric{a=b} 1\n")
	f.Fuzz(func(t *testing.T, in string) {
		sc, err := ParseProm(strings.NewReader(in))
		if err != nil {
			return
		}
		for _, s := range sc.Samples {
			id := s.ID()
			again, err := ParseProm(strings.NewReader(id + " 0\n"))
			if err != nil {
				t.Fatalf("ID %q of an accepted sample does not re-parse: %v", id, err)
			}
			if len(again.Samples) != 1 || again.Samples[0].ID() != id {
				t.Fatalf("ID %q re-parses to %+v", id, again.Samples)
			}
		}
	})
}

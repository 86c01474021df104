package trace

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"tva/internal/telemetry"
	"tva/internal/tvatime"
)

// sampleDump is a small well-formed dump: two hops and one span of
// every edge, with every field populated somewhere.
func sampleDump(t testing.TB) []byte {
	r := NewRecorder(64)
	r.RegisterHop("user0#0->L")
	r.RegisterHop("L#0->R")
	for e := 0; e < NumEdges; e++ {
		r.Record(Span{ID: uint64(e + 1), Time: tvatime.Time(0).Add(tvatime.Duration(e+1) * tvatime.Millisecond),
			Src: 0x0a000001, Dst: 0xc0a80001, Size: 1048, PathID: 77, Hop: uint16(e % 2),
			Edge: Edge(e), Class: 1, Kind: 2, Reason: telemetry.DropRequestQueueFull, Router: 3})
	}
	var buf bytes.Buffer
	if err := r.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readAllocs returns the bytes ReadDump allocates on data.
func readAllocs(data []byte) (uint64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := ReadDump(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// TestReadDumpForgedCountsAllocateLittle feeds ReadDump bare headers
// whose span or hop count claims the maximum with no records behind
// it: the read must fail having allocated well under 1 MiB, not the
// claimed table.
func TestReadDumpForgedCountsAllocateLittle(t *testing.T) {
	var empty bytes.Buffer
	if err := WriteDump(&empty, nil, nil); err != nil {
		t.Fatal(err)
	}
	spans := bytes.Clone(empty.Bytes()) // 24 bytes: header + span count
	binary.LittleEndian.PutUint64(spans[16:], maxDumpSpans)
	hops := bytes.Clone(empty.Bytes()[:16])
	binary.LittleEndian.PutUint32(hops[12:], 1<<20)

	for name, data := range map[string][]byte{"spans": spans, "hops": hops} {
		n, err := readAllocs(data)
		if err == nil {
			t.Errorf("%s: forged header accepted", name)
		}
		if n >= 1<<20 {
			t.Errorf("%s: forged header allocated %d KiB, want < 1 MiB", name, n>>10)
		}
	}
}

// TestReadDumpRejectsNonCanonical pins the strictness the round trip
// rests on: nonzero reserved bytes and trailing data are refused.
func TestReadDumpRejectsNonCanonical(t *testing.T) {
	good := sampleDump(t)
	if _, err := ReadDump(bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	hdrRes := bytes.Clone(good)
	hdrRes[10] = 1
	spanRes := bytes.Clone(good)
	spanRes[len(spanRes)-1] = 1 // last record's reserved tail
	trailing := append(bytes.Clone(good), 0)
	for name, data := range map[string][]byte{
		"header reserved": hdrRes, "span reserved": spanRes, "trailing": trailing,
	} {
		if _, err := ReadDump(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzReadDump holds the dump reader to two properties on arbitrary
// input: it never panics, and whatever it accepts WriteDump writes
// back byte for byte.
func FuzzReadDump(f *testing.F) {
	f.Add(sampleDump(f))
	var empty bytes.Buffer
	if err := WriteDump(&empty, nil, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte("TVATRACE"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDump(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteDump(&out, d.Hops, d.Spans); err != nil {
			t.Fatalf("rewrite of an accepted dump failed: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("round trip differs:\n in  %x\n out %x", data, out.Bytes())
		}
	})
}

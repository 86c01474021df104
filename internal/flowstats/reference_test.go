package flowstats

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tva/internal/packet"
)

// refTable is the space-saving model Table is held to: K rows filled in
// order and searched by a linear scan. A new sender on a full table
// takes the row of the lowest-slot minimum and inherits its count as
// Err; a zero-byte touch never evicts.
type refTable struct {
	k    int
	rows []Sample
}

func (r *refTable) touch(k Key, bytes, pkts, drops, demotions uint64) {
	for i := range r.rows {
		if s := &r.rows[i]; s.Key == k {
			s.Bytes += bytes
			s.Pkts += pkts
			s.Drops += drops
			s.Demotions += demotions
			return
		}
	}
	if len(r.rows) < r.k {
		r.rows = append(r.rows, Sample{Key: k, Bytes: bytes, Pkts: pkts, Drops: drops, Demotions: demotions})
		return
	}
	if bytes == 0 {
		return
	}
	m := 0
	for i, s := range r.rows {
		if s.Bytes < r.rows[m].Bytes {
			m = i
		}
	}
	floor := r.rows[m].Bytes
	r.rows[m] = Sample{Key: k, Bytes: floor + bytes, Pkts: pkts, Drops: drops, Demotions: demotions, Err: floor}
}

// opsSizes are the packet sizes tableOps observes: three, so that byte
// counts tie often.
var opsSizes = [3]uint64{40, 500, 1000}

// tableOps runs the operation sequence encoded in data against a Table
// and refTable and returns the first disagreement. data[0] picks the
// capacity (1..9); each following 2-byte group [op, key] observes one
// packet of an opsSizes size (op%8 < 6), a drop (6) or a demotion (7)
// for one of 12 keys. After every operation the tables' samples, in
// slot order, and MaxBytes must agree, and every internal tree node
// must hold the smaller child, the left one on ties.
func tableOps(data []byte) error {
	if len(data) < 1 {
		return nil
	}
	var tbl Table
	tbl.Init(1 + int(data[0])%9)
	ref := refTable{k: tbl.K()}
	var got []Sample
	for step, p := 0, data[1:]; len(p) >= 2; step, p = step+1, p[2:] {
		k := KeyFor(packet.Addr(p[1]%12+1), 0)
		switch op := p[0] % 8; {
		case op < 6:
			tbl.touch(k, opsSizes[op%3], 1, 0, 0)
			ref.touch(k, opsSizes[op%3], 1, 0, 0)
		case op == 6:
			tbl.touch(k, 0, 0, 1, 0)
			ref.touch(k, 0, 0, 1, 0)
		default:
			tbl.touch(k, 0, 0, 0, 1)
			ref.touch(k, 0, 0, 0, 1)
		}
		got = tbl.AppendSamples(got[:0])
		if !slices.Equal(got, ref.rows) {
			return fmt.Errorf("step %d (op %d, key %v): samples\n%v\nwant\n%v", step, p[0]%8, k, got, ref.rows)
		}
		var top uint64
		for _, s := range ref.rows {
			top = max(top, s.Bytes)
		}
		if tbl.MaxBytes() != top {
			return fmt.Errorf("step %d: MaxBytes %d, want %d", step, tbl.MaxBytes(), top)
		}
		if tbl.idx.Len() != tbl.Len() {
			return fmt.Errorf("step %d: index holds %d keys, table %d", step, tbl.idx.Len(), tbl.Len())
		}
		for n := 1; n < len(tbl.tree)/2; n++ {
			want := tbl.tree[2*n]
			if r := tbl.tree[2*n+1]; r.bytes < want.bytes {
				want = r
			}
			if tbl.tree[n] != want {
				return fmt.Errorf("step %d: node %d = %+v, want %+v", step, n, tbl.tree[n], want)
			}
		}
	}
	return nil
}

// TestTableMatchesReference runs random operation sequences through
// tableOps.
func TestTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 1+2*400)
		rng.Read(data)
		if err := tableOps(data); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// FuzzTableOps holds the table to refTable on fuzzed operation
// sequences.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{2, 0, 1, 1, 2, 2, 3, 6, 9, 7, 1})
	ties := []byte{3}
	for k := byte(0); k < 24; k++ { // equal sizes over 12 keys on 4 slots
		ties = append(ties, 3, k)
	}
	f.Add(ties)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := tableOps(data); err != nil {
			t.Fatal(err)
		}
	})
}

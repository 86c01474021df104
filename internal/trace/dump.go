// The compact binary dump format. A dump is:
//
//	magic   [8]byte  "TVATRACE"
//	version uint16   (currently 1)
//	_       uint16   reserved
//	nhops   uint32
//	hops    nhops × (uint16 length + bytes)
//	nspans  uint64
//	spans   nspans × 56-byte fixed little-endian records, in Seq order
//
// Records are fixed-width and the span list is sorted by Seq before
// writing, so two same-seed runs produce byte-identical dumps.
// Reserved bytes are written as zero, and ReadDump accepts exactly
// what WriteDump produces: rewriting a loaded dump reproduces the file.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"tva/internal/telemetry"
	"tva/internal/tvatime"
)

var dumpMagic = [8]byte{'T', 'V', 'A', 'T', 'R', 'A', 'C', 'E'}

// DumpVersion is the current binary dump format version.
const DumpVersion = 1

// spanRecSize is the fixed on-disk size of one span record.
const spanRecSize = 56

// Dump is a loaded trace file: the hop-name table plus every retained
// span in causal order.
type Dump struct {
	Hops  []string
	Spans []Span
}

// HopName resolves a Span.Hop against the dump's hop table.
func (d *Dump) HopName(h uint16) string {
	if h == NoHop || int(h) >= len(d.Hops) {
		return "-"
	}
	return d.Hops[h]
}

func putSpan(buf []byte, sp *Span) {
	binary.LittleEndian.PutUint64(buf[0:], sp.ID)
	binary.LittleEndian.PutUint64(buf[8:], sp.Seq)
	binary.LittleEndian.PutUint64(buf[16:], uint64(sp.Time))
	binary.LittleEndian.PutUint32(buf[24:], sp.Src)
	binary.LittleEndian.PutUint32(buf[28:], sp.Dst)
	binary.LittleEndian.PutUint32(buf[32:], sp.Size)
	binary.LittleEndian.PutUint16(buf[36:], sp.PathID)
	binary.LittleEndian.PutUint16(buf[38:], sp.Hop)
	buf[40] = byte(sp.Edge)
	buf[41] = sp.Class
	buf[42] = sp.Kind
	buf[43] = byte(sp.Reason)
	buf[44] = sp.Router
	buf[45] = 0
	buf[46] = 0
	buf[47] = 0
	binary.LittleEndian.PutUint64(buf[48:], 0) // reserved
}

func getSpan(buf []byte) Span {
	return Span{
		ID:     binary.LittleEndian.Uint64(buf[0:]),
		Seq:    binary.LittleEndian.Uint64(buf[8:]),
		Time:   tvatime.Time(binary.LittleEndian.Uint64(buf[16:])),
		Src:    binary.LittleEndian.Uint32(buf[24:]),
		Dst:    binary.LittleEndian.Uint32(buf[28:]),
		Size:   binary.LittleEndian.Uint32(buf[32:]),
		PathID: binary.LittleEndian.Uint16(buf[36:]),
		Hop:    binary.LittleEndian.Uint16(buf[38:]),
		Edge:   Edge(buf[40]),
		Class:  buf[41],
		Kind:   buf[42],
		Reason: telemetry.DropReason(buf[43]),
		Router: buf[44],
	}
}

// WriteDump serializes hop names and spans as a binary dump.
func WriteDump(w io.Writer, hops []string, spans []Span) error {
	var hdr [16]byte
	copy(hdr[:8], dumpMagic[:])
	binary.LittleEndian.PutUint16(hdr[8:], DumpVersion)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(hops)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var sbuf [2]byte
	for _, h := range hops {
		if len(h) > 0xffff {
			return fmt.Errorf("trace: hop name %q too long", h[:32])
		}
		binary.LittleEndian.PutUint16(sbuf[:], uint16(len(h)))
		if _, err := w.Write(sbuf[:]); err != nil {
			return err
		}
		if _, err := io.WriteString(w, h); err != nil {
			return err
		}
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], uint64(len(spans)))
	if _, err := w.Write(cnt[:]); err != nil {
		return err
	}
	buf := make([]byte, spanRecSize)
	for i := range spans {
		putSpan(buf, &spans[i])
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// WriteDump serializes the recorder's retained spans (in causal order)
// plus its hop table.
func (r *Recorder) WriteDump(w io.Writer) error {
	return WriteDump(w, r.hops, r.Snapshot())
}

// maxDumpSpans bounds the span count a dump may claim (64 Mi spans ≈
// 3.5 GiB would already be absurd; real dumps are MBs).
const maxDumpSpans = 1 << 26

// readChunk bounds what a header's counts may preallocate: the hop and
// span tables grow as records actually arrive, so a forged count costs
// the reader at most this many entries before the data runs out.
const readChunk = 1024

// ErrBadDump reports a structurally invalid trace file.
var ErrBadDump = errors.New("trace: not a tvatrace dump")

// ReadDump parses a binary dump produced by WriteDump.
func ReadDump(r io.Reader) (*Dump, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, ErrBadDump
	}
	if [8]byte(hdr[:8]) != dumpMagic {
		return nil, ErrBadDump
	}
	if v := binary.LittleEndian.Uint16(hdr[8:]); v != DumpVersion {
		return nil, fmt.Errorf("trace: dump version %d, want %d", v, DumpVersion)
	}
	if binary.LittleEndian.Uint16(hdr[10:]) != 0 {
		return nil, ErrBadDump
	}
	nhops := binary.LittleEndian.Uint32(hdr[12:])
	if nhops > 1<<20 {
		return nil, ErrBadDump
	}
	d := &Dump{Hops: make([]string, 0, min(nhops, readChunk))}
	var sbuf [2]byte
	for i := uint32(0); i < nhops; i++ {
		if _, err := io.ReadFull(r, sbuf[:]); err != nil {
			return nil, ErrBadDump
		}
		name := make([]byte, binary.LittleEndian.Uint16(sbuf[:]))
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, ErrBadDump
		}
		d.Hops = append(d.Hops, string(name))
	}
	var cnt [8]byte
	if _, err := io.ReadFull(r, cnt[:]); err != nil {
		return nil, ErrBadDump
	}
	nspans := binary.LittleEndian.Uint64(cnt[:])
	if nspans > maxDumpSpans {
		return nil, fmt.Errorf("trace: dump claims %d spans, refusing", nspans)
	}
	d.Spans = make([]Span, 0, min(nspans, readChunk))
	buf := make([]byte, spanRecSize)
	for i := uint64(0); i < nspans; i++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, ErrBadDump
		}
		for _, b := range buf[45:] {
			if b != 0 {
				return nil, ErrBadDump // reserved
			}
		}
		d.Spans = append(d.Spans, getSpan(buf))
	}
	if _, err := io.ReadFull(r, buf[:1]); err != io.EOF {
		return nil, ErrBadDump // trailing bytes
	}
	return d, nil
}

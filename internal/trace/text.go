package trace

import (
	"bufio"
	"fmt"
	"io"
)

// WriteText prints spans one line each, in the order given: virtual
// time in seconds, edge, hop, source, destination, class and wire
// size, plus the attributed reason on drop and demote spans. hopName
// resolves Span.Hop (Recorder.HopName or Dump.HopName); router-local
// spans, which have no hop, name their router instead. A health span
// prints its state change.
func WriteText(w io.Writer, spans []Span, hopName func(uint16) string) error {
	bw := bufio.NewWriter(w)
	for i := range spans {
		sp := &spans[i]
		t := sp.Time.SecondsF()
		if sp.Edge == EdgeHealth {
			fmt.Fprintf(bw, "%.6f %-8s %s -> %s\n", t, sp.Edge,
				HealthStateName(sp.Kind-1), HealthStateName(sp.Class))
			continue
		}
		hop := hopName(sp.Hop)
		if sp.Hop == NoHop && sp.Router != 0 {
			hop = fmt.Sprintf("router-%d", sp.Router)
		}
		fmt.Fprintf(bw, "%.6f %-8s %-16s src=%s dst=%s class=%s size=%d",
			t, sp.Edge, hop, dotted(sp.Src), dotted(sp.Dst), ClassName(sp.Class), sp.Size)
		if sp.Edge == EdgeDrop || sp.Edge == EdgeDemote {
			fmt.Fprintf(bw, " reason=%s", sp.Reason)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// dotted renders a raw IPv4 address (packet.Addr's uint32 form) as a
// dotted quad.
func dotted(a uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

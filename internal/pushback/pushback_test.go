package pushback

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tva/internal/packet"
	"tva/internal/tvatime"
)

func at(sec float64) tvatime.Time { return tvatime.FromSeconds(sec) }

func TestWaterfillUnderload(t *testing.T) {
	d := map[linkID]float64{1: 10, 2: 20}
	out := waterfill(d, 100)
	if out[1] != 10 || out[2] != 20 {
		t.Errorf("underload must satisfy all demands: %v", out)
	}
}

func TestWaterfillMaxMin(t *testing.T) {
	// Demands 5, 50, 50 with capacity 60: small demand satisfied, the
	// two heavy ones split the rest equally.
	d := map[linkID]float64{1: 5, 2: 50, 3: 50}
	out := waterfill(d, 60)
	if out[1] != 5 {
		t.Errorf("small demand clipped: %v", out)
	}
	if math.Abs(out[2]-27.5) > 0.01 || math.Abs(out[3]-27.5) > 0.01 {
		t.Errorf("heavy demands not levelled: %v", out)
	}
}

func TestWaterfillProperties(t *testing.T) {
	f := func(seed int64, capRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		d := map[linkID]float64{}
		var total float64
		for i := 0; i < n; i++ {
			v := rng.Float64() * 100
			d[linkID(i)] = v
			total += v
		}
		capacity := float64(capRaw%1000) + 1
		out := waterfill(d, capacity)
		var sum float64
		for id, share := range out {
			if share > d[id]+1e-9 {
				return false // never allocate more than demand
			}
			sum += share
		}
		limit := math.Min(capacity, total)
		return sum <= limit+1e-6 && sum >= limit-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func mkPkt(in int, dst packet.Addr, size int) *packet.Packet {
	return &packet.Packet{Src: packet.Addr(in + 1000), Dst: dst, Size: size}
}

// driveInterval simulates one control interval of traffic: rates is
// bytes/interval per (link, dst); overload drops at the output are
// reported for the victim dst proportionally.
func driveInterval(r *Router, now tvatime.Time, arrivals map[aggKey]int, outCapBytes int) (forwarded int) {
	total := 0
	for key, bytes := range arrivals {
		sent := 0
		for sent < bytes {
			pkt := mkPkt(int(key.in), key.dst, 1000)
			if r.Arrival(pkt, int(key.in), now) {
				if total < outCapBytes {
					total += 1000
					forwarded += 1000
					r.RecordSent(1000)
				} else {
					r.RecordDrop(pkt)
				}
			}
			sent += 1000
		}
	}
	return forwarded
}

func TestDetectionInstallsFilters(t *testing.T) {
	// 10 Mb/s output = 625 KB per 500ms interval. One heavy aggregate
	// (dst 9) from links 1..4 at 400 KB/interval each, plus a light
	// flow (dst 5) at 50 KB/interval.
	r := NewRouter(10_000_000)
	now := at(0)
	arrivals := map[aggKey]int{
		{1, 9}: 400_000, {2, 9}: 400_000, {3, 9}: 400_000, {4, 9}: 400_000,
		{5, 5}: 50_000,
	}
	driveInterval(r, now, arrivals, 625_000)
	r.Tick(now.Add(r.Interval()))
	if r.Stats.FiltersActive == 0 {
		t.Fatal("no filters installed despite heavy drops")
	}
	if r.Stats.AggregatesFound != 1 {
		t.Errorf("AggregatesFound = %d, want 1", r.Stats.AggregatesFound)
	}
	// Filters must target the heavy aggregate's links, not the light flow.
	if _, bad := r.filters[aggKey{5, 5}]; bad {
		t.Error("light innocent flow was filtered")
	}
	for _, in := range []linkID{1, 2, 3, 4} {
		if _, ok := r.filters[aggKey{in, 9}]; !ok {
			t.Errorf("heavy link %d not filtered", in)
		}
	}
}

func TestFiltersThrottleAggregate(t *testing.T) {
	r := NewRouter(10_000_000)
	now := at(0)
	arrivals := map[aggKey]int{
		{1, 9}: 800_000, {2, 9}: 800_000,
	}
	driveInterval(r, now, arrivals, 625_000)
	now = now.Add(r.Interval())
	r.Tick(now)
	// Next interval: the filters limit what even reaches the queue.
	passed := 0
	for i := 0; i < 800; i++ {
		if r.Arrival(mkPkt(1, 9, 1000), 1, now.Add(tvatime.Duration(i)*tvatime.Millisecond/2)) {
			passed++
		}
	}
	if passed > 450 {
		t.Errorf("filter passed %d of 800 KB; limit should bind near the link share", passed)
	}
	if r.FilterDrops() == 0 {
		t.Error("no filter drops recorded")
	}
}

func TestFiltersReleaseWhenCalm(t *testing.T) {
	r := NewRouter(10_000_000)
	now := at(0)
	arrivals := map[aggKey]int{{1, 9}: 1_200_000}
	driveInterval(r, now, arrivals, 625_000)
	now = now.Add(r.Interval())
	r.Tick(now)
	if r.Stats.FiltersActive == 0 {
		t.Fatal("setup: no filter installed")
	}
	// Attack stops: releaseAfter calm intervals release the filter.
	for i := 0; i < releaseAfter; i++ {
		now = now.Add(r.Interval())
		r.Tick(now)
	}
	if r.Stats.FiltersActive != 0 {
		t.Errorf("filters not released after calm: %d", r.Stats.FiltersActive)
	}
	if r.Stats.Releases == 0 {
		t.Error("Releases not counted")
	}
}

func TestMaxMinSparesLightContributors(t *testing.T) {
	// Links 1-2 are heavy (attackers); link 3 contributes little
	// legitimate traffic to the same destination. After filtering,
	// link 3's share must cover its demand.
	r := NewRouter(10_000_000)
	now := at(0)
	arrivals := map[aggKey]int{
		{1, 9}: 900_000, {2, 9}: 900_000, {3, 9}: 30_000,
	}
	driveInterval(r, now, arrivals, 625_000)
	r.Tick(now.Add(r.Interval()))
	light, ok := r.filters[aggKey{3, 9}]
	if ok && light.rateBps < 30_000/r.Interval().Seconds() {
		t.Errorf("light link clipped below its demand: %.0f B/s", light.rateBps)
	}
	h1 := r.filters[aggKey{1, 9}]
	h2 := r.filters[aggKey{2, 9}]
	if h1 == nil || h2 == nil {
		t.Fatal("heavy links not filtered")
	}
	if math.Abs(h1.rateBps-h2.rateBps) > 1 {
		t.Errorf("equal heavy contributors got unequal shares: %.0f vs %.0f", h1.rateBps, h2.rateBps)
	}
}

func TestUpstreamPropagation(t *testing.T) {
	up := NewRouter(10_000_000)
	down := NewRouter(10_000_000)
	down.SetUpstream(1, up)
	now := at(0)

	// Give the upstream router arrival history so it can split the
	// pushed limit across its own inputs.
	for i := 0; i < 500; i++ {
		up.Arrival(mkPkt(7, 9, 1000), 7, now)
	}
	// Congest the downstream router via input link 1.
	arrivals := map[aggKey]int{{1, 9}: 1_500_000}
	driveInterval(down, now, arrivals, 625_000)
	down.Tick(now.Add(down.Interval()))
	if down.Stats.PushedUpstream == 0 {
		t.Fatal("no pushback sent upstream")
	}
	if up.Stats.FiltersActive == 0 {
		up.Tick(now.Add(up.Interval()))
	}
	if _, ok := up.filters[aggKey{7, 9}]; !ok {
		t.Error("upstream router did not install the pushed filter")
	}
}

func TestNoFalsePositiveWithoutCongestion(t *testing.T) {
	r := NewRouter(10_000_000)
	now := at(0)
	arrivals := map[aggKey]int{{1, 9}: 100_000, {2, 5}: 100_000}
	driveInterval(r, now, arrivals, 625_000)
	r.Tick(now.Add(r.Interval()))
	if r.Stats.FiltersActive != 0 {
		t.Errorf("filters installed without congestion: %d", r.Stats.FiltersActive)
	}
}

package xcheck

import (
	"sort"
	"testing"

	"tva/internal/core"
	"tva/internal/exp"
	"tva/internal/metrics"
	"tva/internal/overlay"
	"tva/internal/tvatime"
)

// registered returns the distinct series names reg holds, labels
// dropped.
func registered(reg *metrics.Registry) map[string]bool {
	names := map[string]bool{}
	reg.Each(func(s metrics.SeriesView) { names[s.Name] = true })
	return names
}

// diff returns the names in a that b lacks, sorted.
func diff(a, b map[string]bool) []string {
	var out []string
	for name := range a {
		if !b[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func set(names []string) map[string]bool {
	out := make(map[string]bool, len(names))
	for _, n := range names {
		out[n] = true
	}
	return out
}

// TestPlaneSeries holds both data planes to the series lists in
// internal/metrics by building each plane's registry and reading the
// names it really holds: an instrumented TVA simulation registers
// exactly SimSeries and every other scheme a subset of it; a one-router
// overlay with one host registers exactly OverlaySeries; SharedSeries
// is a subset of both lists.
func TestPlaneSeries(t *testing.T) {
	simList, overlayList := set(metrics.SimSeries), set(metrics.OverlaySeries)
	shared := set(metrics.SharedSeries)
	if extra := diff(shared, simList); len(extra) > 0 {
		t.Errorf("SharedSeries names missing from SimSeries: %v", extra)
	}
	if extra := diff(shared, overlayList); len(extra) > 0 {
		t.Errorf("SharedSeries names missing from OverlaySeries: %v", extra)
	}

	for _, scheme := range []exp.Scheme{exp.SchemeInternet, exp.SchemeTVA, exp.SchemeSIFF, exp.SchemePushback} {
		res := exp.Run(exp.Config{
			Scheme:          scheme,
			Attack:          exp.AttackLegacyFlood,
			NumAttackers:    1,
			Duration:        tvatime.Second,
			MetricsInterval: 100 * tvatime.Millisecond,
			Seed:            1,
		})
		got := registered(res.Telemetry.Metrics)
		if extra := diff(got, simList); len(extra) > 0 {
			t.Errorf("sim %s registers series SimSeries does not declare: %v", scheme, extra)
		}
		if scheme != exp.SchemeTVA {
			continue
		}
		if missing := diff(simList, got); len(missing) > 0 {
			t.Errorf("sim %s does not register SimSeries names: %v", scheme, missing)
		}
	}

	topo, err := overlay.NewTopology(overlay.TopoConfig{Routers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	if _, err := topo.AddHost(exp.DestAddr, 0, core.NewServerPolicy(), core.ShimConfig{}); err != nil {
		t.Fatal(err)
	}
	ms, err := topo.StartMetrics(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := registered(ms[0].Registry)
	if extra := diff(got, overlayList); len(extra) > 0 {
		t.Errorf("overlay registers series OverlaySeries does not declare: %v", extra)
	}
	if missing := diff(overlayList, got); len(missing) > 0 {
		t.Errorf("overlay does not register OverlaySeries names: %v", missing)
	}
}

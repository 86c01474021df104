// Fixture for the metricname analyzer's literal and registration
// rules (loaded under an enforced cmd/ import path; the plane-coverage
// rule is exercised by the metricoverlay/metricsim fixtures).
package metricname

import "tva/internal/metrics"

// A local constant is still drift: it can disagree with names.go.
const localSeries = "tva_local_series" // want "series-name string literal"

func register(r *metrics.Registry, fn func() float64, dynamic string) {
	// Good: the shared constant.
	_ = r.Gauge(metrics.NameHealthState, nil, "shared constant", fn)

	_ = r.Gauge("tva_rogue_series", nil, "literal name", fn) // want "internal/metrics constant"

	_ = r.Gauge(localSeries, nil, "local constant", fn) // want "internal/metrics constant"

	_ = r.Gauge(dynamic, nil, "runtime name", fn) // want "not a compile-time constant"
}

func consumers() []string {
	return []string{
		// Good: derived series names build on the constants.
		metrics.NameRouterReceived + ":rate",
		// Good: the bare prefix is not a series name.
		"tva_",
		"tva_stray_series_name", // want "series-name string literal"
	}
}

func suppressed() string {
	//lint:ignore metricname exposition doc example, not a registered series
	return "tva_doc_example_series"
}

// Fixture for the metricname plane-coverage rule, loaded under the
// overlay plane's import path: registers every series in
// metrics.OverlaySeries (so nothing is missing) plus one sim-only
// series the overlay list does not declare (the "undeclared
// registration" finding, asserted by TestMetricNameCrossPlane).
package metricoverlay

import "tva/internal/metrics"

func registerAll(r *metrics.Registry, fn func() float64) {
	_ = r.Counter(metrics.NameRouterReceived, nil, "", fn)
	_ = r.Counter(metrics.NameRouterForwarded, nil, "", fn)
	_ = r.Counter(metrics.NameRouterUnroutable, nil, "", fn)
	_ = r.Counter(metrics.NameRouterMalformed, nil, "", fn)
	_ = r.Counter(metrics.NameSchedDrops, nil, "", fn)
	_ = r.Counter(metrics.NameDemotions, nil, "", fn)
	_ = r.Gauge(metrics.NameFlowCacheEntries, nil, "", fn)
	_ = r.Gauge(metrics.NameQueueWaitEWMA, nil, "", fn)
	_ = r.Gauge(metrics.NameRxBurstFill, nil, "", fn)
	_ = r.Gauge(metrics.NameTxBurstFill, nil, "", fn)
	_ = r.Gauge(metrics.NameQueuePkts, nil, "", fn)
	_ = r.Gauge(metrics.NameRegularQueues, nil, "", fn)
	_ = r.Gauge(metrics.NameTokenBucket, nil, "", fn)
	_ = r.Counter(metrics.NamePortSent, nil, "", fn)
	_ = r.Counter(metrics.NamePortDropped, nil, "", fn)
	_ = r.Counter(metrics.NamePortTxFailed, nil, "", fn)
	_ = r.Counter(metrics.NamePortTxMsgs, nil, "", fn)
	_ = r.Counter(metrics.NamePortTxBursts, nil, "", fn)
	_ = r.Gauge(metrics.NameFlowTrackedSenders, nil, "", fn)
	_ = r.Counter(metrics.NameFlowBytes, nil, "", fn)
	_ = r.Gauge(metrics.NameFlowTopShare, nil, "", fn)
	_ = r.Gauge(metrics.NameFlowFairnessJain, nil, "", fn)
	_ = r.Gauge(metrics.NameFlowMaxMinRatio, nil, "", fn)
	_ = r.Gauge(metrics.NameHealthState, nil, "", fn)
	_ = r.Counter(metrics.NameHealthTransitions, nil, "", fn)
	_ = r.Counter(metrics.NameGoodputBytes, nil, "", fn) // undeclared in OverlaySeries

	var s metrics.Sketch
	_ = r.SketchQuantiles(metrics.NameQueueWait, nil, "", &s, 0.5, 0.99)
}

// Series-name constants: the single source of truth for every metric
// name either data plane exposes. The overlay router
// (overlay.Router.Metrics), the simulator harness (exp.startMetrics),
// the tvatop console, and scripts/metrics_smoke.sh all refer to these
// constants (the script indirectly, via `tvatop -require-set`), so a
// renamed or dropped series is a compile error or a test failure —
// never silent sim-vs-real drift. Two tests hold the contract:
// TestNoLiteralSeriesNames (this package) fails on any "tva_..." string
// literal elsewhere in the module, and internal/xcheck's
// TestPlaneSeries builds both planes' registries and checks that the
// lists below name exactly what each plane registers.
package metrics

// Metric series names shared by, or specific to, the two data planes.
const (
	// Overlay-plane forwarding totals (tvarouter socket path).
	NameRouterReceived   = "tva_router_received_total"
	NameRouterForwarded  = "tva_router_forwarded_total"
	NameRouterUnroutable = "tva_router_unroutable_total"
	NameRouterMalformed  = "tva_router_malformed_total"

	// Reason-attributed scheduler drops and demotions (both planes).
	NameSchedDrops = "tva_sched_drops_total"
	NameDemotions  = "tva_demotions_total"

	// Router soft state and queue instrumentation (both planes).
	NameFlowCacheEntries = "tva_flowcache_entries"
	NameQueuePkts        = "tva_queue_pkts"
	NameRegularQueues    = "tva_regular_queues"
	NameTokenBucket      = "tva_token_bucket_bytes"
	NameQueueWait        = "tva_queue_wait_ns"

	// Hop-wait EWMA and burst fill (overlay; tx fill also in sim).
	NameQueueWaitEWMA = "tva_queue_wait_ewma_us"
	NameRxBurstFill   = "tva_rx_burst_fill"
	NameTxBurstFill   = "tva_tx_burst_fill"

	// Per-neighbour port counters (overlay only). Dequeued packets are
	// sent or tx-failed; sent ones left in tx-msgs kernel messages
	// (sent/msgs is the segment coalescing ratio) over tx-bursts send
	// bursts (sent/bursts is datagrams per port wake-up).
	NamePortSent     = "tva_port_sent_pkts_total"
	NamePortDropped  = "tva_port_dropped_pkts_total"
	NamePortTxFailed = "tva_port_tx_failed_pkts_total"
	NamePortTxMsgs   = "tva_port_tx_msgs_total"
	NamePortTxBursts = "tva_port_tx_bursts_total"

	// Attack-onset health engine (both planes).
	NameHealthState       = "tva_health_state"
	NameHealthTransitions = "tva_health_transitions_total"

	// Simulator-plane run outcomes.
	NameGoodputBytes    = "tva_goodput_bytes_total"
	NameLinkFaultDrops  = "tva_link_fault_drops_total"
	NameLegitCompletion = "tva_legit_completion_fraction"

	// Per-sender flow accounting (internal/flowstats, both planes):
	// bounded-memory top-K aggregates plus the streaming fairness
	// indices over the legit-sender population. Per-sender detail is
	// deliberately not a labelled series (the registry seals its set
	// at the first tick; an open-ended sender population cannot be) —
	// tvarouter serves it as JSON on /flows instead.
	NameFlowTrackedSenders = "tva_flow_tracked_senders"
	NameFlowBytes          = "tva_flow_bytes_total"
	NameFlowTopShare       = "tva_flow_top_share"
	NameFlowFairnessJain   = "tva_flow_fairness_jain"
	NameFlowMaxMinRatio    = "tva_flow_goodput_maxmin_ratio"
)

// SharedSeries is the sim-vs-real contract: every name here must be
// registered by BOTH data planes (overlay.Router.Metrics and
// exp.startMetrics), so tvatop and offline tooling read either plane
// identically. A name listed here and missing from either plane is a
// compile error (the constant is gone) or a test failure
// (TestPlaneSeries).
var SharedSeries = []string{
	NameQueuePkts,
	NameRegularQueues,
	NameTokenBucket,
	NameFlowCacheEntries,
	NameSchedDrops,
	NameDemotions,
	NameTxBurstFill,
	NameQueueWait,
	NameHealthState,
	NameHealthTransitions,
	NameFlowTrackedSenders,
	NameFlowBytes,
	NameFlowTopShare,
	NameFlowFairnessJain,
	NameFlowMaxMinRatio,
}

// OverlaySeries is the full series set a tvarouter /metrics scrape
// must expose (shared names included). `tvatop -require-set overlay`
// and scripts/metrics_smoke.sh require exactly this list.
var OverlaySeries = []string{
	NameRouterReceived,
	NameRouterForwarded,
	NameRouterUnroutable,
	NameRouterMalformed,
	NameSchedDrops,
	NameDemotions,
	NameFlowCacheEntries,
	NameQueueWaitEWMA,
	NameQueueWait,
	NameRxBurstFill,
	NameTxBurstFill,
	NameQueuePkts,
	NameRegularQueues,
	NameTokenBucket,
	NamePortSent,
	NamePortDropped,
	NamePortTxFailed,
	NamePortTxMsgs,
	NamePortTxBursts,
	NameHealthState,
	NameHealthTransitions,
	NameFlowTrackedSenders,
	NameFlowBytes,
	NameFlowTopShare,
	NameFlowFairnessJain,
	NameFlowMaxMinRatio,
}

// SimSeries is the full series set an instrumented simulator run
// (tvasim -metrics/-prom) must expose.
var SimSeries = []string{
	NameQueuePkts,
	NameRegularQueues,
	NameTokenBucket,
	NameFlowCacheEntries,
	NameGoodputBytes,
	NameSchedDrops,
	NameDemotions,
	NameLinkFaultDrops,
	NameTxBurstFill,
	NameQueueWait,
	NameLegitCompletion,
	NameHealthState,
	NameHealthTransitions,
	NameFlowTrackedSenders,
	NameFlowBytes,
	NameFlowTopShare,
	NameFlowFairnessJain,
	NameFlowMaxMinRatio,
}

// RequiredFor returns the series names `tvatop -require-set <plane>`
// demands of a scrape: the plane's full list, plus — for the overlay —
// the derived :rate column of the received counter, which proves the
// registry has ticked at least twice.
func RequiredFor(plane string) []string {
	switch plane {
	case "shared":
		return append([]string(nil), SharedSeries...)
	case "overlay":
		out := append([]string(nil), OverlaySeries...)
		return append(out, NameRouterReceived+":rate")
	case "sim":
		return append([]string(nil), SimSeries...)
	}
	return nil
}

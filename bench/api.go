package main

import (
	"tva/internal/capability"
	"tva/internal/core"
	"tva/internal/exp"
	"tva/internal/flowcache"
	"tva/internal/flowstats"
	"tva/internal/mac"
	"tva/internal/metrics"
	"tva/internal/netsim"
	"tva/internal/overlay"
	"tva/internal/packet"
	"tva/internal/sched"
	"tva/internal/trace"
)

// pinnedAPI names every function and method of tva/internal/... that
// this benchmark calls. The benchmark measures the system through
// these and nothing else, so they are what it pins: rename or remove
// one and this file stops compiling, which tells the refactor that
// the benchmark (and its README's API list) must move with it. Struct
// fields the benchmark reads (Router.Stats, Host.Inbox, the atomic
// counters of overlay.Router, Result.Transfers ...) are pinned by the
// files that read them.
var pinnedAPI = []struct {
	name string
	fn   any
}{
	// overlay: the real plane.
	{"overlay.NewRouter", overlay.NewRouter},
	{"overlay.Router.AddRoute", (*overlay.Router).AddRoute},
	{"overlay.Router.Addr", (*overlay.Router).Addr},
	{"overlay.Router.Core", (*overlay.Router).Core},
	{"overlay.Router.CoreStats", (*overlay.Router).CoreStats},
	{"overlay.Router.WaitSketch", (*overlay.Router).WaitSketch},
	{"overlay.Router.PortWaitSketch", (*overlay.Router).PortWaitSketch},
	{"overlay.Router.PortSchedDrops", (*overlay.Router).PortSchedDrops},
	{"overlay.Router.RxBurstFill", (*overlay.Router).RxBurstFill},
	{"overlay.Router.TxBurstFill", (*overlay.Router).TxBurstFill},
	{"overlay.Router.Close", (*overlay.Router).Close},
	{"overlay.NewSpanSink", overlay.NewSpanSink},
	{"overlay.NewTopology", overlay.NewTopology},
	{"overlay.Topology.AddHost", (*overlay.Topology).AddHost},
	{"overlay.Topology.Router", (*overlay.Topology).Router},
	{"overlay.Topology.Close", (*overlay.Topology).Close},
	{"overlay.Host.Send", (*overlay.Host).Send},
	{"overlay.Host.HasCaps", (*overlay.Host).HasCaps},
	{"overlay.Host.UDPAddr", (*overlay.Host).UDPAddr},
	// core: the capability engine.
	{"core.NewRouter", core.NewRouter},
	{"core.Router.ProcessBatch", (*core.Router).ProcessBatch},
	{"core.Router.Authority", (*core.Router).Authority},
	{"core.Router.Cache", (*core.Router).Cache},
	{"core.NewServerPolicy", core.NewServerPolicy},
	{"core.ServerPolicy.MarkMisbehaving", (*core.ServerPolicy).MarkMisbehaving},
	{"core.NewClientPolicy", core.NewClientPolicy},
	// packet: codec and pools.
	{"packet.AcquirePacket", packet.AcquirePacket},
	{"packet.Release", packet.Release},
	{"packet.AcquireBatch", packet.AcquireBatch},
	{"packet.ReleaseBatch", packet.ReleaseBatch},
	{"packet.Live", packet.Live},
	{"packet.Packet.UnmarshalReuse", (*packet.Packet).UnmarshalReuse},
	{"packet.Packet.Marshal", (*packet.Packet).Marshal},
	{"packet.Batch.Append", (*packet.Batch).Append},
	{"packet.Batch.Class", (*packet.Batch).Class},
	{"packet.Batch.Pkts", (*packet.Batch).Pkts},
	{"packet.Batch.ReleaseAll", (*packet.Batch).ReleaseAll},
	{"packet.CapHdr.WireSize", (*packet.CapHdr).WireSize},
	// sched: the link scheduler.
	{"sched.NewTVA", sched.NewTVA},
	{"sched.TVA.EnqueueBatch", (*sched.TVA).EnqueueBatch},
	{"sched.TVA.DequeueBatch", (*sched.TVA).DequeueBatch},
	// capability, mac, flowcache, and the observers.
	{"capability.Authority.PreCap", (*capability.Authority).PreCap},
	{"capability.Authority.ValidateCap", (*capability.Authority).ValidateCap},
	{"capability.Suite.MakeCap", capability.Suite.MakeCap},
	{"mac.NewAES", mac.NewAES},
	{"flowcache.New", flowcache.New},
	{"flowcache.Cache.Lookup", (*flowcache.Cache).Lookup},
	{"flowcache.Cache.Create", (*flowcache.Cache).Create},
	{"flowcache.Cache.Flush", (*flowcache.Cache).Flush},
	{"flowcache.Cache.Len", (*flowcache.Cache).Len},
	{"flowstats.New", flowstats.New},
	{"flowstats.Collector.Observe", (*flowstats.Collector).Observe},
	{"metrics.New", metrics.New},
	{"metrics.Registry.CounterVar", (*metrics.Registry).CounterVar},
	{"metrics.Registry.SketchQuantiles", (*metrics.Registry).SketchQuantiles},
	{"metrics.Registry.Tick", (*metrics.Registry).Tick},
	{"metrics.Counter.Record", (*metrics.Counter).Record},
	{"metrics.Sketch.Observe", (*metrics.Sketch).Observe},
	{"metrics.Sketch.Quantile", (*metrics.Sketch).Quantile},
	{"metrics.Sketch.Count", (*metrics.Sketch).Count},
	{"trace.NewRecorder", trace.NewRecorder},
	{"trace.Recorder.Record", (*trace.Recorder).Record},
	// exp and netsim: the simulated plane.
	{"exp.Run", exp.Run},
	{"exp.RunMany", exp.RunMany},
	{"exp.Result.AvgTransferTime", (*exp.Result).AvgTransferTime},
	{"netsim.New", netsim.New},
	{"netsim.Sim.After", (*netsim.Sim).After},
	{"netsim.Sim.Step", (*netsim.Sim).Step},
}

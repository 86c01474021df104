// Package tva is a from-scratch reproduction of the Traffic Validation
// Architecture from "A DoS-limiting Network Architecture" (Yang,
// Wetherall, Anderson — SIGCOMM 2005): a capability-based network
// architecture in which destinations authorize senders, routers
// preferentially forward authorized traffic within fine-grained
// byte/time budgets, and floods of unauthorized, request, or even
// authorized attack traffic have strictly limited impact.
//
// The package is a facade over the implementation:
//
//   - capabilities: unforgeable pre-capabilities and fine-grained
//     capabilities with rotating router secrets (paper §3.4–3.5);
//   - the router data path: Fig. 6 processing, bounded per-flow state
//     (§3.6), and the three-class link scheduler of Fig. 2;
//   - the host shim: request bootstrap, capability caching with flow
//     nonces, renewal, demotion repair, and destination policies
//     (§3.3, §4.2);
//   - a packet-level discrete-event simulator, Reno-style TCP, and the
//     SIFF / Pushback / legacy-Internet baselines used to reproduce
//     the paper's Figs. 8–11;
//   - a userspace UDP overlay (router and host proxy) reproducing the
//     deployment story of §6/§8 and the Table 1 / Fig. 12 forwarding
//     measurements.
//
// Quick start (simulation):
//
//	res := tva.RunSim(tva.SimConfig{
//		Scheme:       tva.SchemeTVA,
//		Attack:       tva.AttackLegacyFlood,
//		NumAttackers: 100,
//	})
//	fmt.Println(res.CompletionFraction(), res.AvgTransferTime())
//
// Quick start (real sockets): see examples/overlaynet.
package tva

import (
	"math/rand"

	"tva/internal/capability"
	"tva/internal/core"
	"tva/internal/exp"
	"tva/internal/overlay"
	"tva/internal/packet"
	"tva/internal/tvatime"
)

// Addr is a 32-bit TVA network address.
type Addr = packet.Addr

// AddrFrom builds an Addr from four octets.
func AddrFrom(a, b, c, d byte) Addr { return packet.AddrFrom(a, b, c, d) }

// Packet is a TVA packet (outer header + capability shim + payload).
type Packet = packet.Packet

// CapHdr is the capability shim header of Fig. 5.
type CapHdr = packet.CapHdr

// Grant is a destination's authorization of N bytes over T seconds.
type Grant = packet.Grant

// Proto identifies the payload above the capability shim.
type Proto = packet.Proto

// Payload protocols.
const (
	ProtoRaw = packet.ProtoRaw
	ProtoTCP = packet.ProtoTCP
)

// Time and Duration alias the shared clock representation.
type (
	Time     = tvatime.Time
	Duration = tvatime.Duration
)

// Clock supplies time to protocol components.
type Clock = tvatime.Clock

// Suite names the capability construction; destinations call its
// MakeCap.
type Suite = capability.Suite

// CryptoSuite is the paper's AES-CBC-MAC + SHA-1 construction, the
// only one.
var CryptoSuite = capability.Crypto

// Authority mints and validates one router's capabilities.
type Authority = capability.Authority

// NewAuthority returns a capability authority with the given secret
// rotation period (0 selects the paper's 128 s).
func NewAuthority(secretPeriod Duration) *Authority {
	return capability.NewAuthority(secretPeriod)
}

// Router is the TVA capability router engine (Fig. 6).
type Router = core.Router

// RouterConfig configures a Router.
type RouterConfig = core.RouterConfig

// NewRouter builds a capability router.
func NewRouter(cfg RouterConfig) *Router { return core.NewRouter(cfg) }

// Shim is the host-side capability layer (§4.2).
type Shim = core.Shim

// ShimConfig configures a Shim.
type ShimConfig = core.ShimConfig

// NewShim builds a host shim. The rng supplies flow nonces.
func NewShim(addr Addr, policy Policy, clock Clock, rng *rand.Rand, cfg ShimConfig) *Shim {
	return core.NewShim(addr, policy, clock, rng, cfg)
}

// Destination policies (§3.3).
type (
	// Policy authorizes inbound senders.
	Policy = core.Policy
	// ClientPolicy accepts only responses to its own requests.
	ClientPolicy = core.ClientPolicy
	// ServerPolicy grants a default allowance and blacklists reported
	// misbehavers.
	ServerPolicy = core.ServerPolicy
	// AllowAllPolicy grants everyone the maximum authorization.
	AllowAllPolicy = core.AllowAllPolicy
	// RefuseAllPolicy refuses everyone.
	RefuseAllPolicy = core.RefuseAllPolicy
)

// NewClientPolicy returns a ClientPolicy with defaults.
func NewClientPolicy() *ClientPolicy { return core.NewClientPolicy() }

// NewServerPolicy returns a ServerPolicy with defaults.
func NewServerPolicy() *ServerPolicy { return core.NewServerPolicy() }

// --- Simulation experiments (paper §5) ---

// SimConfig parameterizes one simulated dumbbell experiment.
type SimConfig = exp.Config

// SimResult carries one run's transfer records and metrics.
type SimResult = exp.Result

// TransferRecord is one user transfer's outcome.
type TransferRecord = exp.TransferRecord

// SweepPoint is one attacker-count point of Figs. 8–10.
type SweepPoint = exp.SweepPoint

// Scheme selects the DoS defense under test.
type Scheme = exp.Scheme

// Schemes compared in the paper's evaluation.
const (
	SchemeInternet = exp.SchemeInternet
	SchemeTVA      = exp.SchemeTVA
	SchemeSIFF     = exp.SchemeSIFF
	SchemePushback = exp.SchemePushback
)

// Attack selects the attacker workload.
type Attack = exp.Attack

// Attacks of §5.1–§5.4.
const (
	AttackNone            = exp.AttackNone
	AttackLegacyFlood     = exp.AttackLegacyFlood
	AttackRequestFlood    = exp.AttackRequestFlood
	AttackAuthorizedFlood = exp.AttackAuthorizedFlood
	AttackImpreciseAuth   = exp.AttackImpreciseAuth
)

// Deployment selects which routers are upgraded (§8 incremental
// deployment).
type Deployment = exp.Deployment

// Deployment levels.
const (
	DeployFull           = exp.DeployFull
	DeployBottleneckOnly = exp.DeployBottleneckOnly
	DeployNone           = exp.DeployNone
)

// RunSim executes one simulation run.
func RunSim(cfg SimConfig) *SimResult { return exp.Run(cfg) }

// SweepSim runs cfg at each attacker count, collecting the paper's two
// metrics.
func SweepSim(cfg SimConfig, attackerCounts []int) []SweepPoint {
	return exp.Sweep(cfg, attackerCounts)
}

// RunSims executes independent simulation runs across worker
// goroutines, returning results in input order. workers <= 0 uses
// GOMAXPROCS. Each run's outcome depends only on its configuration,
// so the results are identical to running the configs serially.
func RunSims(cfgs []SimConfig, workers int) []*SimResult {
	return exp.RunMany(cfgs, workers)
}

// SweepSimParallel is SweepSim fanned across workers; it returns the
// same points in the same order.
func SweepSimParallel(cfg SimConfig, attackerCounts []int, workers int) []SweepPoint {
	return exp.SweepParallel(cfg, attackerCounts, workers)
}

// SimSweepSpec enumerates a (scheme, attack, attacker-count, seed)
// grid over a base configuration for parallel execution.
type SimSweepSpec = exp.SweepSpec

// Well-known simulation addresses.
var (
	SimDestAddr     = exp.DestAddr
	SimColluderAddr = exp.ColluderAddr
)

// --- Userspace overlay (paper §6/§8) ---

// OverlayRouter is a userspace TVA router over UDP.
type OverlayRouter = overlay.Router

// OverlayRouterConfig configures an OverlayRouter.
type OverlayRouterConfig = overlay.RouterConfig

// NewOverlayRouter binds and starts a userspace router.
func NewOverlayRouter(cfg OverlayRouterConfig) (*OverlayRouter, error) {
	return overlay.NewRouter(cfg)
}

// OverlayHost is a capability-protected datagram endpoint over UDP.
type OverlayHost = overlay.Host

// OverlayHostConfig configures an OverlayHost.
type OverlayHostConfig = overlay.HostConfig

// OverlayMessage is a datagram delivered to an OverlayHost.
type OverlayMessage = overlay.Message

// NewOverlayHost binds and starts a host proxy.
func NewOverlayHost(cfg OverlayHostConfig) (*OverlayHost, error) {
	return overlay.NewHost(cfg)
}

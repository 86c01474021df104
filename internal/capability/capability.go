// Package capability implements TVA's unforgeable, fine-grained
// capabilities (paper §3.4–§3.5, Fig. 3).
//
// A pre-capability is minted by each router on the path of a request:
//
//	pre = timestamp(8 bits) || MAC56_secret(src, dst, timestamp)
//
// The destination converts each pre-capability into a capability bound
// to its chosen authorization of N bytes over T seconds:
//
//	cap = timestamp(8 bits) || H56(pre, N, T)
//
// where H56 is a public hash, so the destination needs no router
// secrets. A router validates a capability by recomputing both hashes.
//
// Router secrets rotate every SecretPeriod (128 s by default, half the
// modulo-256-second timestamp rollover); the high-order bit of the
// timestamp selects the current or previous secret, so a router tries
// exactly one secret per validation. Minting and validation take no
// lock: a Ring publishes each epoch's secrets as one immutable value.
package capability

import (
	"sync"
	"sync/atomic"

	"tva/internal/mac"
	"tva/internal/packet"
	"tva/internal/tvatime"
)

// DefaultSecretPeriod is the paper's router secret lifetime: secrets
// change at twice the rate of the 256 s timestamp rollover (§3.4, §5.4
// "TVA expires router secret every 128 seconds").
const DefaultSecretPeriod = 128 * tvatime.Second

// tsRollover is the modulo of the 8-bit router timestamp, in seconds.
const tsRollover = 256

// Suite names the one capability construction routers and
// destinations share: AES-CBC-MAC pre-capabilities and SHA-1
// capabilities (§3.4, §6). Crypto is its only value.
type Suite struct{}

// Crypto is the paper's AES-CBC-MAC + SHA-1 construction.
var Crypto = Suite{}

// Timestamp extracts the 8-bit router timestamp from a pre-capability
// or capability value.
func Timestamp(v uint64) uint8 { return uint8(v >> 56) }

// hashOf extracts the 56-bit hash part.
func hashOf(v uint64) uint64 { return v & mac.Mask56 }

// compose packs a timestamp and 56-bit hash into one 64-bit value.
func compose(ts uint8, h uint64) uint64 { return uint64(ts)<<56 | (h & mac.Mask56) }

// MakeCap converts a pre-capability into a capability for the grant
// (N, T) using the public SHA-1 hash. Destinations call this; no
// router secret is involved (§3.5).
func (Suite) MakeCap(pre uint64, nkb uint16, tsec uint8) uint64 {
	return compose(Timestamp(pre), mac.SHA56(pre, uint32(nkb), tsec))
}

// Age returns the age in seconds of a timestamp under the modulo-256
// clock, and whether the comparison is unambiguous (age within half the
// rollover). now is absolute seconds.
func Age(ts uint8, nowSec int64) (age int64, ok bool) {
	age = (nowSec - int64(ts)) % tsRollover
	if age < 0 {
		age += tsRollover
	}
	return age, age <= tsRollover/2
}

// Ring holds one router's rotating secrets: the secret of the newest
// epoch it has seen and of the epoch before it (an epoch is one period
// long). TVA's Authority and SIFF's Marker both keep their secrets in
// one. Ring is safe for concurrent use, and a MAC takes no lock: the
// secrets and their epoch are one immutable ringState behind an atomic
// pointer (mac.Keyed is safe for concurrent use). Only rotation locks,
// so that exactly one caller draws each epoch's secret.
type Ring struct {
	period tvatime.Duration
	state  atomic.Pointer[ringState]
	mu     sync.Mutex // serializes rotate
}

// ringState is one immutable generation of a Ring. keyed[i] is the MAC
// for epochs with parity i; epoch is the newest epoch installed. Before
// the first rotation, the previous slot holds a secret nothing was
// minted under.
type ringState struct {
	keyed [2]mac.Keyed
	epoch int64
}

// NewRing returns a Ring rotating its secret every period (> 0).
func NewRing(period tvatime.Duration) *Ring {
	r := &Ring{period: period}
	r.state.Store(&ringState{keyed: [2]mac.Keyed{
		mac.NewAES(mac.NewSecret()), mac.NewAES(mac.NewSecret()),
	}})
	return r
}

// Epoch returns the secret epoch in effect at t.
func (r *Ring) Epoch(t tvatime.Time) int64 { return int64(t) / int64(r.period) }

// MAC56 computes the 56-bit MAC of (a, b, c) under epoch e's secret,
// after rotating the ring forward to cur, the epoch of the caller's
// clock. ok is false when e's secret is not held: retired (older than
// the newest epoch's predecessor) or not yet issued.
//
//tva:hotpath
func (r *Ring) MAC56(cur, e int64, a, b, c uint64) (h uint64, ok bool) {
	s := r.state.Load()
	if cur > s.epoch {
		s = r.rotate(cur)
	}
	if e < s.epoch-1 || e > s.epoch {
		return 0, false
	}
	return s.keyed[e&1].MAC56(a, b, c), true
}

// rotate installs fresh secrets up to epoch e, regenerating both slots
// when both are stale, and returns the state in effect: a copy of the
// current one with the new secrets, or the current one when another
// caller has already rotated to e or beyond.
func (r *Ring) rotate(e int64) *ringState {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.state.Load()
	if e <= s.epoch {
		return s
	}
	next := *s
	if e-next.epoch >= 2 {
		next.keyed[(e-1)&1] = mac.NewAES(mac.NewSecret())
	}
	next.keyed[e&1] = mac.NewAES(mac.NewSecret())
	next.epoch = e
	r.state.Store(&next)
	return &next
}

// Authority mints and validates capabilities for one router. Its
// secrets live in a Ring; Authority is safe for concurrent use.
type Authority struct {
	ring *Ring
}

// NewAuthority returns an Authority rotating its secret every period.
// A zero period selects DefaultSecretPeriod.
func NewAuthority(period tvatime.Duration) *Authority {
	if period <= 0 {
		period = DefaultSecretPeriod
	}
	return &Authority{ring: NewRing(period)}
}

// mac56For computes MAC56(src, dst, ts) under the secret in effect for
// a value minted at timestamp ts and observed at now; ok is false if
// the mint epoch's secret has already been retired.
func (a *Authority) mac56For(ts uint8, now tvatime.Time, src, dst packet.Addr) (h uint64, ok bool) {
	age, ok := Age(ts, now.Seconds())
	if !ok {
		return 0, false
	}
	mintEpoch := a.ring.Epoch(now.Add(-tvatime.Duration(age) * tvatime.Second))
	if mintEpoch < 0 {
		mintEpoch = 0
	}
	return a.ring.MAC56(a.ring.Epoch(now), mintEpoch, uint64(src), uint64(dst), uint64(ts))
}

// PreCap mints a pre-capability for the (src, dst) pair at time now
// (§3.4: hash of timestamp, addresses and the router secret).
//
//tva:hotpath
func (a *Authority) PreCap(src, dst packet.Addr, now tvatime.Time) uint64 {
	return a.MinterAt(now).PreCap(src, dst)
}

// Minter is a per-burst snapshot of the authority's minting state: the
// secret epoch and the modulo-256 timestamp are resolved once when the
// snapshot is taken, so batched request processing pays them per burst
// instead of per packet. A Minter is only valid for the instant it was
// taken at — take a fresh one whenever now advances
// (core.Router.ProcessBatch takes one per burst, which runs at a single
// timestamp).
type Minter struct {
	ring  *Ring
	epoch int64
	ts    uint8
}

// MinterAt snapshots the minting epoch and timestamp in effect at now.
func (a *Authority) MinterAt(now tvatime.Time) Minter {
	return Minter{ring: a.ring, epoch: a.ring.Epoch(now), ts: uint8(now.Seconds() % tsRollover)}
}

// PreCap mints a pre-capability for (src, dst) under the snapshot's
// epoch and timestamp. A snapshot whose epoch another user of the
// ring has already retired mints a pre-capability that never
// validates.
//
//tva:hotpath
func (m Minter) PreCap(src, dst packet.Addr) uint64 {
	h, _ := m.ring.MAC56(m.epoch, m.epoch, uint64(src), uint64(dst), uint64(m.ts))
	return compose(m.ts, h)
}

// ValidateCap checks a full capability for (src, dst) with the claimed
// grant parameters (N in KB, T in seconds): it recomputes the
// pre-capability under the mint-epoch secret, recomputes the public
// hash, and checks the expiry time (§3.5: local time must not exceed
// timestamp + T). The byte-count check lives in the flow cache.
func (a *Authority) ValidateCap(src, dst packet.Addr, cap uint64, nkb uint16, tsec uint8, now tvatime.Time) bool {
	ts := Timestamp(cap)
	age, ok := Age(ts, now.Seconds())
	if !ok || age > int64(tsec) {
		return false // expired (or ambiguous, which implies long expired)
	}
	h, ok := a.mac56For(ts, now, src, dst)
	if !ok {
		return false
	}
	return hashOf(Crypto.MakeCap(compose(ts, h), nkb, tsec)) == hashOf(cap)
}

// ValidatePre checks that a pre-capability was minted by this authority
// for (src, dst) and has not outlived the secret rotation. Routers do
// not need this on the forwarding path (they re-mint rather than
// verify), but destinations of diagnostic tools and tests use it.
func (a *Authority) ValidatePre(src, dst packet.Addr, pre uint64, now tvatime.Time) bool {
	ts := Timestamp(pre)
	h, ok := a.mac56For(ts, now, src, dst)
	if !ok {
		return false
	}
	return hashOf(pre) == h
}

// Expiry returns the first instant at which a capability with the
// given timestamp and period T stops validating (ValidateCap compares
// whole seconds, so a capability minted in second s is good through
// the end of second s+T). Callers must treat the returned time as
// exclusive: the capability is valid strictly before it.
func Expiry(cap uint64, tsec uint8, now tvatime.Time) tvatime.Time {
	age, _ := Age(Timestamp(cap), now.Seconds())
	remaining := int64(tsec) - age
	if remaining < 0 {
		remaining = 0
	}
	// Truncate to the second boundary the router's modulo clock uses.
	nowWhole := tvatime.Time(now.Seconds() * int64(tvatime.Second))
	return nowWhole.Add(tvatime.Duration(remaining+1) * tvatime.Second)
}

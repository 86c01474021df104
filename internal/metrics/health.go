package metrics

import (
	"strconv"

	"tva/internal/tvatime"
)

// State is the router's attack-onset health, derived online from the
// drop-rate slope. The progression mirrors what an operator watching
// the paper's Fig. 11 would call out by hand: drops ramp (degraded),
// sustain (under-attack), fall back (recovered), and stay quiet
// (healthy again).
type State uint8

const (
	Healthy State = iota
	Degraded
	UnderAttack
	Recovered
	// NumStates bounds State for array sizing and gauge encoding.
	NumStates = int(Recovered) + 1
)

// String returns the kebab-case state name used in log lines, metric
// values' documentation, and tvatop.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case UnderAttack:
		return "under-attack"
	case Recovered:
		return "recovered"
	default:
		return "state-" + strconv.Itoa(int(s))
	}
}

// Transition records one health-state change: when it fired, at which
// tick (the deterministic sample offset in simulation), and the
// signal values that triggered it.
type Transition struct {
	At       tvatime.Time
	Sample   int // tick index at which the transition fired (0-based)
	From, To State
	DropRate float64 // drops/sec at the transition tick
	Pressure float64 // request-channel pressure at the transition tick
}

// String renders the transition the way tvasim and tvarouter log it.
// Formatting is fixed-precision so same-seed runs emit byte-identical
// lines.
func (t Transition) String() string {
	return t.From.String() + " -> " + t.To.String() +
		" t=" + strconv.FormatFloat(t.At.Sub(0).Seconds(), 'f', 3, 64) + "s" +
		" sample=" + strconv.Itoa(t.Sample) +
		" drop-rate=" + strconv.FormatFloat(t.DropRate, 'f', 1, 64) + "pps" +
		" pressure=" + strconv.FormatFloat(t.Pressure, 'f', 1, 64)
}

// The change-point detector's settings.
const (
	// detectK is the deviation multiplier: a tick is "hot" when the
	// drop rate exceeds baseline + detectK*deviation (and
	// minDropRate).
	detectK = 4
	// minDropRate (drops/sec) is an absolute floor under which a tick
	// is never hot, so idle-network noise cannot trip the detector.
	minDropRate = 50
	// degradedTicks / onsetTicks are the consecutive hot ticks needed
	// to enter Degraded / UnderAttack (hysteresis against blips).
	degradedTicks = 1
	onsetTicks    = 3
	// recoverTicks is the consecutive cool ticks needed to leave an
	// attack state for Recovered; clearTicks the further cool ticks
	// from Recovered back to Healthy.
	recoverTicks = 5
	clearTicks   = 5
	// maxTransitions bounds the preallocated transition log.
	maxTransitions = 64
)

// Detector is a streaming change-point detector over the drop-rate
// slope. It keeps an EWMA baseline of the drop rate plus an EWMA of
// absolute deviation (both updated only while Healthy, so an attack
// cannot teach the detector that attacks are normal), and advances a four-state machine with hysteresis on
// every ObserveTick. All state is a handful of floats: ticking is
// allocation-free, and — fed from sampled values in virtual time — a
// pure function of the tick sequence, so same-seed simulations
// transition at identical sample offsets.
type Detector struct {
	state State

	mean float64 // EWMA baseline of drop rate while healthy
	dev  float64 // EWMA of |rate - mean| while healthy

	prevDrops float64
	prevT     tvatime.Time
	ticked    bool

	hot, cool int // consecutive hot / cool tick counts
	tick      int // ticks observed

	transitions []Transition
	overflow    int // transitions dropped once the log filled

	// OnTransition, when set, runs synchronously inside ObserveTick
	// for every state change — the hook tvasim uses for trace spans
	// and tvarouter for log lines.
	OnTransition func(Transition)
}

// NewDetector returns a detector in the Healthy state.
func NewDetector() *Detector {
	return &Detector{transitions: make([]Transition, 0, maxTransitions)}
}

// State returns the current health state.
func (d *Detector) State() State { return d.state }

// StateValue returns the state as a float for the tva_health_state
// gauge (0=healthy 1=degraded 2=under-attack 3=recovered).
func (d *Detector) StateValue() float64 { return float64(d.state) }

// Transitions returns the recorded transitions, oldest first.
func (d *Detector) Transitions() []Transition { return d.transitions }

// Overflow returns how many transitions were discarded after the
// preallocated log filled.
func (d *Detector) Overflow() int { return d.overflow }

// ObserveTick feeds the detector one sample: the cumulative drop
// count and the instantaneous request-channel pressure at time now.
// Only the drop rate decides the state; pressure is recorded in any
// Transition the tick fires.
// Call it once per registry tick, before Registry.Tick, so the
// tva_health_state gauge row reflects this tick's verdict.
func (d *Detector) ObserveTick(now tvatime.Time, dropsTotal, pressure float64) {
	var rate float64
	if d.ticked {
		if dt := now.Sub(d.prevT).Seconds(); dt > 0 {
			rate = (dropsTotal - d.prevDrops) / dt
		}
	}
	first := !d.ticked
	d.prevDrops = dropsTotal
	d.prevT = now
	d.ticked = true

	hot := rate >= minDropRate && rate > d.mean+detectK*d.dev
	if hot {
		d.hot++
		d.cool = 0
	} else {
		d.cool++
		d.hot = 0
	}

	// The baseline learns only quiet, healthy ticks: an attack must
	// not drag the mean up until the detector stops firing.
	if d.state == Healthy && !hot {
		if first {
			d.mean = rate
		} else {
			d.mean += ewmaAlpha * (rate - d.mean)
			ad := rate - d.mean
			if ad < 0 {
				ad = -ad
			}
			d.dev += ewmaAlpha * (ad - d.dev)
		}
	}

	switch d.state {
	case Healthy:
		if d.hot >= onsetTicks {
			d.transition(now, UnderAttack, rate, pressure)
		} else if d.hot >= degradedTicks {
			d.transition(now, Degraded, rate, pressure)
		}
	case Degraded:
		if d.hot >= onsetTicks {
			d.transition(now, UnderAttack, rate, pressure)
		} else if d.cool >= recoverTicks {
			d.transition(now, Recovered, rate, pressure)
		}
	case UnderAttack:
		if d.cool >= recoverTicks {
			d.transition(now, Recovered, rate, pressure)
		}
	case Recovered:
		if d.hot >= degradedTicks {
			d.transition(now, Degraded, rate, pressure)
		} else if d.cool >= clearTicks {
			d.transition(now, Healthy, rate, pressure)
		}
	}
	d.tick++
}

// transition switches state, logs the change, and fires the hook.
// Consecutive-tick counters reset so each state's thresholds count
// from its own entry.
func (d *Detector) transition(now tvatime.Time, to State, rate, pressure float64) {
	tr := Transition{
		At:       now,
		Sample:   d.tick,
		From:     d.state,
		To:       to,
		DropRate: rate,
		Pressure: pressure,
	}
	d.state = to
	d.hot, d.cool = 0, 0
	if len(d.transitions) < cap(d.transitions) {
		d.transitions = append(d.transitions, tr)
	} else {
		d.overflow++
	}
	if d.OnTransition != nil {
		d.OnTransition(tr)
	}
}

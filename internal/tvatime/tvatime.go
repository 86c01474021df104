// Package tvatime defines the time representation shared by the TVA
// protocol engine, the discrete-event simulator, and the real-time
// overlay. Times are nanoseconds relative to an arbitrary epoch (the
// simulation start, or the Unix epoch for the overlay), which lets the
// same protocol code run against either a virtual or a wall clock.
package tvatime

import "time"

// Time is an instant, in nanoseconds since an arbitrary epoch.
type Time int64

// Duration is a span of time in nanoseconds. It is layout-compatible
// with time.Duration.
type Duration = time.Duration

// Common durations re-exported for convenience.
const (
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
	Minute      = time.Minute
)

// Add returns t shifted forward by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t as whole seconds since the epoch, truncated.
func (t Time) Seconds() int64 { return int64(t) / int64(Second) }

// SecondsF returns t as fractional seconds since the epoch.
func (t Time) SecondsF() float64 { return float64(t) / float64(Second) }

// FromSeconds converts fractional seconds since the epoch to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Clock supplies the current time. The simulator provides a virtual
// clock; the overlay provides a wall clock.
type Clock interface {
	Now() Time
}

// ClockFunc adapts a function to the Clock interface.
type ClockFunc func() Time

// Now implements Clock.
func (f ClockFunc) Now() Time { return f() }

// WallClock is a Clock backed by the real time.Now, measured from the
// Unix epoch.
type WallClock struct{}

// Now implements Clock.
func (WallClock) Now() Time { return Time(time.Now().UnixNano()) }

// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel. Simulated entities (cluster nodes, NIC engines, switch
// pipelines) run as coroutine-style processes written in straight-line Go;
// the kernel interleaves them one at a time in virtual-time order, so every
// run with the same seed is bit-reproducible regardless of host scheduling.
package sim

import "fmt"

// Time is a point in virtual time, measured in integer picoseconds.
// Picosecond resolution keeps sub-nanosecond switch cycles exact while an
// int64 still spans ~106 simulated days.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Forever is a sentinel for "no timeout".
const Forever Time = 1<<63 - 1

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns t expressed in microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Unit returns the unit String prints t in, the largest of ps, ns, us, ms
// and s that keeps the number at least 1, and its suffix.
func (t Time) Unit() (Time, string) {
	u, suffix := Second, "s"
	for _, smaller := range []string{"ms", "us", "ns", "ps"} {
		if t >= u {
			break
		}
		u, suffix = u/1000, smaller
	}
	return u, suffix
}

// String renders the time in the unit Unit picks: whole picoseconds, or
// three decimals of a larger unit.
func (t Time) String() string {
	u, suffix := t.Unit()
	if u == Picosecond {
		return fmt.Sprintf("%d%s", int64(t), suffix)
	}
	return fmt.Sprintf("%.3f%s", float64(t)/float64(u), suffix)
}

// DurationOf converts a quantity of seconds into a Time, rounding to the
// nearest picosecond. Useful when deriving durations from bandwidths.
func DurationOf(seconds float64) Time {
	return Time(seconds*float64(Second) + 0.5)
}

// BytesAt returns the time needed to move n bytes at rate bytesPerSecond.
func BytesAt(n int, bytesPerSecond float64) Time {
	if n <= 0 || bytesPerSecond <= 0 {
		return 0
	}
	return DurationOf(float64(n) / bytesPerSecond)
}

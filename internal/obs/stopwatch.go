package obs

import "time"

// Stopwatch cuts a stretch of wall-clock into consecutive laps, for
// code that reports where its time went stage by stage.
type Stopwatch struct{ last time.Time }

// StartStopwatch returns a running stopwatch.
func StartStopwatch() Stopwatch { return Stopwatch{last: time.Now()} }

// Lap returns the time since the previous Lap (or the start) and begins
// the next one.
func (s *Stopwatch) Lap() time.Duration {
	now := time.Now()
	d := now.Sub(s.last)
	s.last = now
	return d
}

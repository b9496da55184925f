package obs

import (
	"testing"
	"time"
)

func TestStopwatchLapsPartitionTheStretch(t *testing.T) {
	began := time.Now()
	sw := StartStopwatch()
	var sum time.Duration
	for i := 0; i < 3; i++ {
		time.Sleep(time.Millisecond)
		lap := sw.Lap()
		if lap < time.Millisecond {
			t.Fatalf("lap %d = %v, slept 1ms", i, lap)
		}
		sum += lap
	}
	if total := time.Since(began); sum > total {
		t.Fatalf("laps sum to %v, more than the %v that passed", sum, total)
	}
}

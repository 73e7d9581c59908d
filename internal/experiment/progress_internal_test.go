package experiment

import (
	"testing"
	"time"
)

// TestProgressETA pins the extrapolation arithmetic of the progress
// lines: the mean case time so far, times the cases left.
func TestProgressETA(t *testing.T) {
	for _, c := range []struct {
		done, total int
		elapsed     time.Duration
		want        string
	}{
		{0, 4, 10 * time.Second, ""},                  // nothing to extrapolate from
		{1, 4, 10 * time.Second, "  (eta 30s)"},       // 10s a case, 3 left
		{2, 4, 10 * time.Second, "  (eta 10s)"},       // 5s a case, 2 left
		{3, 4, 1500 * time.Millisecond, "  (eta 1s)"}, // 0.5s rounds to 1s
		{4, 4, 10 * time.Second, ""},                  // nothing remains
		{3, 720, 9 * time.Second, "  (eta 35m51s)"},
	} {
		if got := eta(c.done, c.total, c.elapsed); got != c.want {
			t.Errorf("eta(%d, %d, %v) = %q, want %q", c.done, c.total, c.elapsed, got, c.want)
		}
	}
}

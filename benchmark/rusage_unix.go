//go:build unix

package main

import "syscall"

// peakRSSMB is this process's peak resident set, from getrusage.
// Linux reports kilobytes.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

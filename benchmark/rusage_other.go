//go:build !unix

package main

// peakRSSMB needs getrusage; elsewhere the metric is not measured.
func peakRSSMB() float64 { return 0 }

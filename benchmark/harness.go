package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// env is what a workload is given: the seed its inputs derive from, and
// the span log of a traced pass (nil in a timed pass).
type env struct {
	seed  int64
	spans *spanLog
	// tracedSeconds is the window of the traced pass.
	tracedSeconds float64
}

// lapStats is one lap: the same seeded work as every other lap of the
// run, so differences between laps are noise.
type lapStats struct {
	wall time.Duration
	// work is the numerator of ops_per_s in the workload's own unit
	// (runs, delivery steps, changes, requests, accepted writes).
	work float64
	// waitUs is the lap's value of wait_p50_us.
	waitUs float64
	// attempted, failed and refused count operations. Refusals are
	// NotPrimary answers on live_failover, where they are the
	// behaviour under test and not failures.
	attempted, failed, refused int64
	// extra holds the lap's values of the metrics only some workloads
	// have, under their per-layer names (loadgen.read_p50_us,
	// sim.runs_per_s, ...); reported as medians over laps.
	extra map[string]float64
	// fp fingerprints a sim lap's outputs; 0 on live workloads.
	fp uint64
}

// workload is one entry of the benchmark. setup builds and warms the
// state laps run on and is timed as setup_s; layers runs the traced
// pass after the timed one and returns the per-layer metrics it has.
type workload interface {
	setup() error
	lap() (lapStats, error)
	close()
	layers(timed *pass) (map[string]float64, error)
}

const (
	minLaps = 3
	maxLaps = 40
)

// pass is a sequence of identical laps.
type pass struct {
	laps []lapStats
}

// runLaps repeats the lap until both minLaps laps and the window have
// elapsed.
func runLaps(w workload, seconds float64) (*pass, error) {
	p := &pass{}
	start := time.Now()
	for len(p.laps) < maxLaps {
		l, err := w.lap()
		if err != nil {
			return p, fmt.Errorf("lap %d: %w", len(p.laps)+1, err)
		}
		p.laps = append(p.laps, l)
		if len(p.laps) >= minLaps && time.Since(start).Seconds() >= seconds {
			break
		}
	}
	return p, nil
}

func (p *pass) each(f func(lapStats) float64) []float64 {
	out := make([]float64, len(p.laps))
	for i, l := range p.laps {
		out[i] = f(l)
	}
	return out
}

func (p *pass) rates() []float64 {
	return p.each(func(l lapStats) float64 { return l.work / l.wall.Seconds() })
}

func (p *pass) waits() []float64 { return p.each(func(l lapStats) float64 { return l.waitUs }) }

func (p *pass) medianWall() time.Duration {
	return time.Duration(median(p.each(func(l lapStats) float64 { return float64(l.wall) })))
}

func (p *pass) counts() (attempted, failed, refused int64) {
	for _, l := range p.laps {
		attempted += l.attempted
		failed += l.failed
		refused += l.refused
	}
	return
}

// extraNames lists the workload's own metrics in a stable order.
func (p *pass) extraNames() []string {
	seen := map[string]bool{}
	for _, l := range p.laps {
		for k := range l.extra {
			seen[k] = true
		}
	}
	names := make([]string, 0, len(seen))
	for k := range seen {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func (p *pass) extras(name string) []float64 {
	return p.each(func(l lapStats) float64 { return l.extra[name] })
}

// summed are the extras that count events: a pass reports their total
// over its laps, where every other extra reports its median lap.
var summed = map[string]bool{"loadgen.not_primary": true, "loadgen.errors": true, "gcs.stuck_cycles": true}

// extra reduces one of the workload's own metrics over the laps.
func (p *pass) extra(name string) float64 {
	if !summed[name] {
		return median(p.extras(name))
	}
	var total float64
	for _, v := range p.extras(name) {
		total += v
	}
	return total
}

// sameFingerprint reports the fingerprint every lap produced, or an
// error when two laps of identical seeded work disagree.
func (p *pass) sameFingerprint() (uint64, error) {
	for i, l := range p.laps {
		if l.fp != p.laps[0].fp {
			return 0, fmt.Errorf("lap %d fingerprint %016x differs from lap 1 %016x", i+1, l.fp, p.laps[0].fp)
		}
	}
	return p.laps[0].fp, nil
}

// memDelta is the runtime's allocation and GC-pause activity between
// two readings, for the go.* per-layer metrics.
type memDelta struct {
	mallocs, bytes uint64
	pause          time.Duration
}

func readMem() (m runtime.MemStats) {
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		pause:   time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}

// into fills the go.* metrics from the memory delta of a traced pass over ops operations.
func (d memDelta) into(m map[string]float64, ops float64) {
	if ops > 0 {
		m["go.allocs_per_op"] = float64(d.mallocs) / ops
		m["go.alloc_bytes_per_op"] = float64(d.bytes) / ops
	}
	m["go.gc_pause_ms"] = float64(d.pause) / float64(time.Millisecond)
}

package main

import (
	"fmt"
	"testing"

	"dynvote/internal/algset"
	"dynvote/internal/core"
	"dynvote/internal/metrics"
	"dynvote/internal/proc"
	"dynvote/internal/rng"
	"dynvote/internal/sim"
	"dynvote/internal/view"
)

// TestShadowDriverMatchesDriver: the shadow driver — plain and with the
// timing factory — produces sim.Driver.Run's results bit for bit, for
// every algorithm, fresh-start (reset between runs) and cascading
// (healed between runs), with a crash-and-recover plan and the checker
// on; and its own counts equal the real driver's registry.
func TestShadowDriverMatchesDriver(t *testing.T) {
	const runs = 3
	for _, f := range algset.All() {
		for _, procs := range []int{16, 64} {
			for _, cascading := range []bool{false, true} {
				name := fmt.Sprintf("%s/%d/cascading=%v", f.Name, procs, cascading)
				t.Run(name, func(t *testing.T) {
					cfg := sim.Config{
						Procs: procs, Changes: 6, MeanRounds: 2, CheckSafety: true,
						Crash: &sim.CrashPlan{AfterChanges: 2, Process: proc.None, RecoverAfter: 2},
					}
					seed := func(run int) *rng.Source { return rng.New(int64(1000*procs + run)) }

					reg := metrics.NewRegistry()
					withReg := cfg
					withReg.Metrics = reg
					real := sim.NewDriver(f, withReg, seed(0))
					want := newFingerprint()
					for run := 0; run < runs; run++ {
						if cascading {
							real.Heal()
						} else if run > 0 {
							real.Reset(seed(run))
						}
						r, err := real.Run()
						if err != nil {
							t.Fatal(err)
						}
						fingerprintRun(want, r)
					}

					shadow := func(d *shadowDriver) uint64 {
						got := newFingerprint()
						for run := 0; run < runs; run++ {
							if cascading {
								d.heal()
							} else if run > 0 {
								d.reset(seed(run))
							}
							r, err := d.run()
							if err != nil {
								t.Fatal(err)
							}
							fingerprintRun(got, r)
						}
						return got.sum()
					}
					if got := shadow(newShadowDriver(f, cfg, seed(0), nil, nil)); got != want.sum() {
						t.Errorf("plain shadow driver: fingerprint %016x, driver %016x", got, want.sum())
					}
					lay, algs := &simLayers{}, map[string]*algTimes{}
					timed := newShadowDriver(timedFactory(f, algTimesFor(algs, f.Name)), cfg, seed(0), lay, newSpanLog())
					if got := shadow(timed); got != want.sum() {
						t.Errorf("timed shadow driver: fingerprint %016x, driver %016x", got, want.sum())
					}
					if err := lay.matchRegistry(algs, reg); err != nil {
						t.Error(err)
					}
				})
			}
		}
	}
}

// TestTimedFactoryForwardsOptionalInterfaces: sim.Cluster discovers
// Resetter, AmbiguousReporter, PrimaryReporter and Snapshotter by type
// assertion. The wrapper must answer all four and pass them through —
// above all Reset must reset the wrapped instance in place, or
// Cluster.Reset rebuilds every instance and the traced pass measures
// different work than the timed one.
func TestTimedFactoryForwardsOptionalInterfaces(t *testing.T) {
	initial := view.View{ID: 0, Members: proc.Universe(8)}
	for _, f := range algset.All() {
		alg := timedFactory(f, newAlgTimes()).New(3, initial)
		wrapped := alg.(*timedAlg)
		inner := wrapped.inner
		if _, ok := alg.(core.AmbiguousReporter); !ok {
			t.Errorf("%s: wrapper hides core.AmbiguousReporter", f.Name)
		}
		if _, ok := alg.(core.PrimaryReporter); !ok {
			t.Errorf("%s: wrapper hides core.PrimaryReporter", f.Name)
		}
		alg.(core.Resetter).Reset(3, initial)
		if _, resets := inner.(core.Resetter); resets && wrapped.inner != inner {
			t.Errorf("%s: Reset rebuilt an instance that can reset in place", f.Name)
		}
		snap, err := alg.(core.Snapshotter).Snapshot()
		if s, ok := inner.(core.Snapshotter); ok {
			want, werr := s.Snapshot()
			if err != nil || werr != nil || string(snap) != string(want) {
				t.Errorf("%s: Snapshot through the wrapper = %x, %v; direct = %x, %v", f.Name, snap, err, want, werr)
			}
			if err := alg.(core.Snapshotter).Restore(snap); err != nil {
				t.Errorf("%s: Restore through the wrapper: %v", f.Name, err)
			}
		} else if err == nil {
			t.Errorf("%s: wrapper invented a snapshot for an algorithm without durable state", f.Name)
		}
	}
}

package gcs

// The failure detector's decisions, run in virtual time: no sockets,
// goroutines or sleeps, so every count and every instant is exact.

import (
	"math/rand/v2"
	"testing"
	"time"

	"dynvote/internal/proc"
)

const (
	vEvery = 80 * time.Millisecond
	vFail  = 3 * vEvery
	vProbe = vEvery / probesPerBeat
)

// epoch is when every virtual detector starts.
var epoch = time.Unix(1_000_000, 0)

// tick returns the instant of beat k of a detector started at epoch.
func tick(k int) time.Time { return epoch.Add(time.Duration(k) * vEvery) }

func newVDetector(self proc.ID, peers ...proc.ID) *detector {
	d := newDetector(self, vEvery, vFail, epoch)
	for _, p := range peers {
		d.peers.Add(p)
	}
	return d
}

// vnet runs detectors, detector i with id i, in virtual time. Each
// steps at the deadline it returned, and at once when heard says so;
// every heartbeat is heard by its target at the instant it is sent if
// link lets it through. Ties go to the lower id.
type vnet struct {
	now   time.Time
	ds    []*detector
	due   []time.Time
	link  func(from, to proc.ID) bool
	sent  [][]int     // sent[from][to]: heartbeats returned by steps
	pub   []proc.Set  // last set each detector published
	pubAt []time.Time // and when
	pubs  []int       // how many times each published
}

func newVnet(ds ...*detector) *vnet {
	v := &vnet{
		now: epoch, ds: ds, due: make([]time.Time, len(ds)),
		link:  func(proc.ID, proc.ID) bool { return true },
		sent:  make([][]int, len(ds)),
		pub:   make([]proc.Set, len(ds)),
		pubAt: make([]time.Time, len(ds)),
		pubs:  make([]int, len(ds)),
	}
	for i := range ds {
		v.due[i] = epoch // the loop steps once as it starts
		v.sent[i] = make([]int, len(ds))
	}
	return v
}

// runUntil runs every step due at or before end.
func (v *vnet) runUntil(end time.Time) {
	for {
		i := 0
		for j := range v.due {
			if v.due[j].Before(v.due[i]) {
				i = j
			}
		}
		if v.due[i].After(end) {
			v.now = end
			return
		}
		v.now = v.due[i]
		to, reach, publish, next := v.ds[i].step(v.now)
		v.due[i] = next
		if publish {
			v.pub[i], v.pubAt[i] = reach, v.now
			v.pubs[i]++
		}
		from := proc.ID(i)
		for _, p := range to {
			v.sent[i][p]++
			if v.link(from, p) && v.ds[p].heard(from, v.now) {
				v.due[p] = v.now
			}
		}
	}
}

// sentOver returns how many heartbeats from sent to each of tos in
// (v.now, end], and runs until end.
func (v *vnet) sentOver(end time.Time, from proc.ID, tos ...proc.ID) []int {
	before := make([]int, len(tos))
	for i, to := range tos {
		before[i] = v.sent[from][to]
	}
	v.runUntil(end)
	for i, to := range tos {
		before[i] = v.sent[from][to] - before[i]
	}
	return before
}

// TestDetectorProbeCadence: a suspected peer gets exactly probesPerBeat
// frames per beat, a reachable one beside it exactly one, and once
// nobody is suspected the beat is all there is.
func TestDetectorProbeCadence(t *testing.T) {
	a, b, c := newVDetector(0, 1, 2), newVDetector(1, 0), newVDetector(2, 0)
	c.blocked = proc.NewSet(0) // c ignores a, so a suspects c for as long as c says
	v := newVnet(a, b, c)
	v.runUntil(tick(1))
	if !v.pub[0].Equal(proc.NewSet(0, 1)) {
		t.Fatalf("a published %v after its first beat, want {p0,p1}", v.pub[0])
	}
	for k := 1; k < 4; k++ {
		got := v.sentOver(tick(k+1), 0, 1, 2)
		if got[0] != 1 || got[1] != probesPerBeat {
			t.Errorf("beat %d: b got %d and suspected c %d frames, want 1 and %d", k+1, got[0], got[1], probesPerBeat)
		}
	}

	c.blocked = proc.Set{}
	v.runUntil(tick(5))
	if !v.pub[0].Equal(proc.NewSet(0, 1, 2)) || !v.pub[2].Equal(proc.NewSet(0, 2)) {
		t.Fatalf("a published %v and c %v after the heal", v.pub[0], v.pub[2])
	}
	for k := 5; k < 8; k++ {
		got := v.sentOver(tick(k+1), 0, 1, 2)
		if got[0] != 1 || got[1] != 1 {
			t.Errorf("beat %d with everyone reachable: b got %d and c %d frames, want 1 each", k+1, got[0], got[1])
		}
		if !v.due[0].Equal(tick(k + 2)) {
			t.Errorf("beat %d: a steps next at %v, want its next tick", k+1, v.due[0].Sub(epoch))
		}
	}
}

// TestDetectorKickKeepsTickPhase: a frame from a suspected peer kicks a
// beat at once, on both sides, and neither side's ticks move, nor the
// probes b goes on sending to a peer that never answers. The two
// detectors start out of phase, and the link opens just after one of
// b's probes, so a's next probe is the first frame across.
func TestDetectorKickKeepsTickPhase(t *testing.T) {
	const bPhase = 7 * time.Millisecond
	a := newVDetector(0, 1)
	b := newDetector(1, vEvery, vFail, epoch.Add(bPhase))
	b.peers = proc.NewSet(0, 2)
	v := newVnet(a, b, newVDetector(2)) // 2 knows nobody
	v.due[1] = epoch.Add(bPhase)
	v.due[1] = epoch.Add(bPhase)
	up := false
	v.link = func(proc.ID, proc.ID) bool { return up }
	v.runUntil(tick(2).Add(3*vProbe + bPhase + time.Millisecond))
	if v.pubs[0] != 1 || v.pubs[1] != 1 {
		t.Fatalf("published %d and %d times while cut off, want the first look's once each", v.pubs[0], v.pubs[1])
	}

	up = true
	healed := tick(2).Add(4 * vProbe)
	sentA, sentB := v.sent[0][1], v.sent[1][0]
	v.runUntil(healed)
	for i := 0; i < 2; i++ {
		if !v.pub[i].Equal(proc.NewSet(0, 1)) || !v.pubAt[i].Equal(healed) {
			t.Errorf("p%d published %v at %v, want {p0,p1} at %v", i, v.pub[i], v.pubAt[i].Sub(epoch), healed.Sub(epoch))
		}
	}
	// a's probe, b's echo, and a's echo of the echo, which kicks nothing.
	if a, b := v.sent[0][1]-sentA, v.sent[1][0]-sentB; a != 2 || b != 1 {
		t.Errorf("the heal took %d frames from a and %d from b, want 2 and 1", a, b)
	}
	if want := tick(3); !v.due[0].Equal(want) {
		t.Errorf("a steps next at %v, want its tick at %v", v.due[0].Sub(epoch), want.Sub(epoch))
	}
	if want := tick(3).Add(bPhase); !b.nextBeat.Equal(want) {
		t.Errorf("b beats next at %v, want its tick at %v", b.nextBeat.Sub(epoch), want.Sub(epoch))
	}
	if want := healed.Add(bPhase); !v.due[1].Equal(want) {
		t.Errorf("b steps next at %v, want its next probe to p2 at %v", v.due[1].Sub(epoch), want.Sub(epoch))
	}
}

// TestDetectorBlock: a blocked peer is sent nothing, probes included;
// its frames are not stamped and kick nothing; it leaves the reachable
// set at the next beat without waiting out FailAfter; the probes that
// run meanwhile publish nothing; and the heal is found by a probe.
func TestDetectorBlock(t *testing.T) {
	a, b, c := newVDetector(0, 1, 2), newVDetector(1, 0), newVDetector(2, 0)
	v := newVnet(a, b, c)
	v.runUntil(tick(2).Add(3 * vProbe))
	all := proc.NewSet(0, 1, 2)
	if !v.pub[0].Equal(all) {
		t.Fatalf("a published %v before the block, want %v", v.pub[0], all)
	}

	a.blocked = proc.NewSet(1)
	stamp, pubs := a.heardAt[1], v.pubs[0]
	v.runUntil(tick(3))
	if v.pubs[0] != pubs+1 || !v.pub[0].Equal(proc.NewSet(0, 2)) || !v.pubAt[0].Equal(tick(3)) {
		t.Fatalf("a published %v at %v, want {p0,p2} at its next beat %v", v.pub[0], v.pubAt[0].Sub(epoch), tick(3).Sub(epoch))
	}
	got := v.sentOver(tick(3).Add(2*vFail), 0, 1, 2)
	if got[0] != 0 {
		t.Errorf("a sent %d frames to a peer it blocks", got[0])
	}
	if beats := int(2 * vFail / vEvery); got[1] != beats {
		t.Errorf("a sent %d frames to c, want one per beat (%d): probes went to someone", got[1], beats)
	}
	if v.pubs[0] != pubs+1 {
		t.Errorf("a published %d more times during the block: %v", v.pubs[0]-pubs-1, v.pub[0])
	}
	if !a.heardAt[1].Equal(stamp) || a.kicked {
		t.Errorf("frames from a blocked peer stamped %v (was %v) or kicked (%v)", a.heardAt[1].Sub(epoch), stamp.Sub(epoch), a.kicked)
	}
	// b, which does not block a, kept sending to it and convicted it.
	if v.sent[1][0] == 0 || !v.pub[1].Equal(proc.NewSet(1)) {
		t.Fatalf("b sent a %d frames and published %v: it should have kept sending, then convicted a", v.sent[1][0], v.pub[1])
	}

	a.blocked = proc.Set{}
	healed := v.now
	v.runUntil(healed.Add(vProbe))
	if !v.pub[0].Equal(all) || !v.pub[1].Equal(proc.NewSet(0, 1)) {
		t.Errorf("a published %v and b %v within a probe period of the heal", v.pub[0], v.pub[1])
	}
}

// TestDetectorPauseCredit: a look that comes late by a pause credits the
// pause to every stamp. A live peer is not convicted by a look
// 2×FailAfter late; a dead one is convicted exactly the pause later
// than without it, at the same observed silence; a frame stamped after
// the process resumed is not moved past now.
func TestDetectorPauseCredit(t *testing.T) {
	// Peer 1 is heard at every step until tick 1 and never again. The
	// process is stopped from just after tick 3 for pause: the steps due
	// in it run, once, when it ends.
	convicted := func(pause time.Duration) (time.Time, int) {
		d := newVDetector(0, 1)
		d.heard(1, epoch)
		pubs := 0
		for now := epoch; now.Before(tick(100)); {
			_, reach, publish, next := d.step(now)
			if publish {
				pubs++
				if !reach.Contains(1) {
					return now, pubs
				}
			}
			if !now.After(tick(1)) {
				d.heard(1, now)
			}
			if now = next; now.Equal(tick(4)) {
				now = now.Add(pause)
			}
		}
		return time.Time{}, pubs
	}
	for _, pause := range []time.Duration{0, 2 * vEvery, 2 * vFail} {
		at, pubs := convicted(pause)
		if want := tick(5).Add(pause); !at.Equal(want) || pubs != 2 {
			t.Errorf("pause %v: convicted at %v after %d publications, want at %v after 2", pause, at.Sub(epoch), pubs, want.Sub(epoch))
		}
	}

	// A live peer whose frames were not read during the pause either.
	d := newVDetector(0, 1)
	for k := 1; k <= 3; k++ {
		d.heard(1, tick(k))
		d.step(tick(k))
	}
	resumed := tick(4).Add(2 * vFail)
	if _, reach, publish, next := d.step(resumed); publish || !reach.Contains(1) || !next.Equal(tick(11)) {
		t.Errorf("look 2×FailAfter late: reach %v, publish %v, next %v; want {p0,p1} kept, nothing published, next at the tick after", reach, publish, next.Sub(epoch))
	}
	// Stopped again after tick 11. On resume the reader stamps a frame
	// just before the loop gets the lock.
	d.step(tick(11))
	resumed = tick(12).Add(2 * vFail)
	d.heard(1, resumed)
	looked := resumed.Add(time.Millisecond)
	d.step(looked)
	if got := d.heardAt[1]; !got.Equal(looked) {
		t.Errorf("a stamp made after the resume was credited to %v, want clamped to now %v", got.Sub(epoch), looked.Sub(epoch))
	}
}

// TestDetectorAgreesWithOracle: under any sequence of partitions, once
// one has held for FailAfter plus two beats every detector's last
// published set is its component — what MemNetwork's perfect detector
// reports.
func TestDetectorAgreesWithOracle(t *testing.T) {
	const settle = vFail + 2*vEvery
	for _, n := range []int{3, 5} {
		mn := NewMemNetwork(n) // each seed's first change resets it
		for seed := uint64(0); seed < 200; seed++ {
			r := rand.New(rand.NewPCG(seed, 0))
			ds := make([]*detector, n)
			for i := range ds {
				ds[i] = newVDetector(proc.ID(i))
				ds[i].peers = proc.Universe(n).Without(proc.ID(i))
			}
			v := newVnet(ds...)
			v.link = func(from, to proc.ID) bool { return mn.reach[from].Contains(to) }
			for change := 0; change < 2; change++ {
				comps := make([]proc.Set, 1+r.IntN(n))
				for i := 0; i < n; i++ {
					comps[r.IntN(len(comps))].Add(proc.ID(i))
				}
				if err := mn.SetComponents(comps...); err != nil {
					t.Fatal(err)
				}
				hold := time.Duration(r.Int64N(int64(settle)))
				if change == 1 || r.IntN(2) == 0 {
					hold = settle
				}
				v.runUntil(v.now.Add(hold))
				if hold < settle {
					continue
				}
				for i := range ds {
					if want := mn.reach[proc.ID(i)]; !v.pub[i].Equal(want) {
						t.Fatalf("n=%d seed %d change %d: p%d published %v, the oracle says %v", n, seed, change, i, v.pub[i], want)
					}
				}
			}
		}
	}
}

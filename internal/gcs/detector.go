package gcs

import (
	"time"

	"dynvote/internal/proc"
)

// detector is TCPTransport's failure detector as a step machine: every
// decision it makes, and no clock, goroutine or lock. The caller passes
// the time in, serialises the calls and carries out what they return:
// TCPTransport on the wall clock under t.mu, tests in virtual time.
// Inputs are peers and blocked, which the caller sets directly, heard
// and step; see those for the outputs.
//
// Beats fall at start + k·HeartbeatEvery, like a time.Ticker's ticks. A
// beat heartbeats every unblocked peer, then looks. Loss is a timeout
// noticed at a look. Recovery is evidence: a frame from a configured,
// unblocked peer outside the reachable set kicks a beat at once, whose
// heartbeat is the echo that lets that peer do the same; after the look
// the sender is reachable and kicks nothing more. A kick moves no tick.
//
// While some configured peer is outside the reachable set, those not
// blocked are probed, HeartbeatEvery/probesPerBeat apart, from one probe
// period after suspicion starts; a probe due with a beat is that beat's
// heartbeat. A probe does not look: it publishes and convicts nothing.
//
// A look counts a peer reachable if it is not blocked and was heard
// within FailAfter of the detector's own running time: a look more than
// HeartbeatEvery after the previous one — the process was stopped,
// starved or stuck on the caller's lock — credits the excess to every
// stamp, as absence, not evidence about anyone else. The first look
// always publishes: a process that starts inside a partition must learn
// that its assumed initial view is fiction.
type detector struct {
	self      proc.ID
	every     time.Duration // HeartbeatEvery
	failAfter time.Duration
	peers     proc.Set // configured peers, never self
	blocked   proc.Set

	heardAt   map[proc.ID]time.Time
	reach     proc.Set
	published bool // some look has run
	lastLook  time.Time
	kicked    bool
	nextBeat  time.Time
	nextProbe time.Time // zero while nobody is suspected
	to        []proc.ID // step's result, reused
}

// probesPerBeat is how many frames a suspected peer is sent per
// HeartbeatEvery. A probe is one 8-byte frame and suspects are few, so
// the price of finding a healed link within an eighth of a tick is
// small; a dead peer's probes mostly die in its writer's back-off.
const probesPerBeat = 8

func newDetector(self proc.ID, every, failAfter time.Duration, start time.Time) *detector {
	return &detector{
		self: self, every: every, failAfter: failAfter,
		heardAt:  make(map[proc.ID]time.Time),
		reach:    proc.NewSet(self),
		nextBeat: start.Add(every),
	}
}

// heard stamps a frame from p that arrived at at; one from a blocked or
// unconfigured id is evidence of nothing. It reports whether the frame
// is news: p was outside the reachable set, so the caller must step at
// once and p's writer should forget its redial back-off.
func (d *detector) heard(p proc.ID, at time.Time) bool {
	if !d.peers.Contains(p) || d.blocked.Contains(p) {
		return false
	}
	d.heardAt[p] = at
	if d.reach.Contains(p) {
		return false
	}
	d.kicked = true
	return true
}

// step runs what is due at now: a beat if one was kicked or a tick has
// come (a late step runs one and drops the ticks missed), else a probe.
// It returns the peers to heartbeat (valid until the next step), the
// set to publish if publish, and when to step next.
func (d *detector) step(now time.Time) (to []proc.ID, reach proc.Set, publish bool, next time.Time) {
	beat := d.kicked || !now.Before(d.nextBeat)
	probe := !d.nextProbe.IsZero() && !now.Before(d.nextProbe)
	d.to = d.to[:0]
	if beat || probe {
		d.peers.ForEach(func(id proc.ID) {
			if !d.blocked.Contains(id) && (beat || !d.reach.Contains(id)) {
				d.to = append(d.to, id)
			}
		})
	}
	if beat {
		publish = d.look(now)
		d.kicked = false
		d.nextBeat = firstAfter(d.nextBeat, d.every, now)
	}
	switch {
	case d.peers.SubsetOf(d.reach):
		d.nextProbe = time.Time{}
	case d.nextProbe.IsZero():
		d.nextProbe = now.Add(d.every / probesPerBeat)
	case probe:
		d.nextProbe = firstAfter(d.nextProbe, d.every/probesPerBeat, now)
	}
	next = d.nextBeat
	if !d.nextProbe.IsZero() && d.nextProbe.Before(next) {
		next = d.nextProbe
	}
	return d.to, d.reach, publish, next
}

// look recomputes the reachable set and reports whether to publish it.
// The stamps are moved by the pause, rather than conviction skipped for
// one look after a long gap, because that needs no threshold for
// "long": a pause of any length is credited exactly.
func (d *detector) look(now time.Time) bool {
	var credit time.Duration
	if d.published {
		credit = now.Sub(d.lastLook) - d.every
	}
	d.lastLook = now
	reach := proc.NewSet(d.self)
	for id, last := range d.heardAt {
		if credit > 0 {
			// Not past now: a frame stamped since the process resumed
			// would otherwise buy its sender the whole pause as grace.
			if last = last.Add(credit); last.After(now) {
				last = now
			}
			d.heardAt[id] = last
		}
		if !d.blocked.Contains(id) && now.Sub(last) <= d.failAfter {
			reach.Add(id)
		}
	}
	publish := !d.published || !reach.Equal(d.reach)
	d.published, d.reach = true, reach
	return publish
}

// firstAfter returns the first of at, at+every, at+2·every, … that is
// later than now.
func firstAfter(at time.Time, every time.Duration, now time.Time) time.Time {
	if at.After(now) {
		return at
	}
	return at.Add((now.Sub(at)/every + 1) * every)
}

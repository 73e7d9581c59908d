package main

import (
	"bytes"
	"time"

	"dynvote/internal/proc"
	"dynvote/internal/quorum"
	"dynvote/internal/rng"
	"dynvote/internal/trace"
	"dynvote/internal/wire"
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// perCall times n calls of f and returns nanoseconds per call.
func perCall(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// runProbes times the public functions of the leaf packages at the
// workload's width, so a change to a set representation or the rng
// shows in its own number before it shows in a lap.
func runProbes(m map[string]float64, procs int) {
	const n = 200000
	r := rng.New(1)
	m["rng.intn_ns"] = perCall(n, func(int) { sink += r.Intn(procs) })
	ids := make([]proc.ID, procs)
	m["rng.shuffle_ns"] = perCall(n/procs+1, func(int) {
		r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	})

	// Two overlapping halves of the universe: members at both ends, so
	// wide sets use every word.
	var a, b proc.Set
	for i := 0; i < procs; i++ {
		if i%3 != 0 {
			a.Add(proc.ID(i))
		}
		if i%2 == 0 || i == procs-1 {
			b.Add(proc.ID(i))
		}
	}
	m["proc.set_intersect_ns"] = perCall(n, func(int) { sink += a.Intersect(b).Count() })
	m["proc.set_foreach_ns"] = perCall(n/procs+1, func(int) {
		a.ForEach(func(p proc.ID) { sink += int(p) })
	})
	var bits proc.Bits
	bits.Reset(procs)
	m["proc.bits_add_ns"] = perCall(n, func(i int) {
		bits.Add(proc.ID(i % procs))
		if i%procs == procs-1 {
			bits.Reset(procs)
		}
	})
	m["quorum.subquorum_ns"] = perCall(n, func(int) {
		if quorum.SubQuorum(a, b) {
			sink++
		}
	})

	// A recorder at capacity, as a soak chain's is after its first few
	// rounds.
	rec := trace.NewRecorder(4096)
	ev := trace.Event{Kind: trace.KindDeliver, Process: 1, From: 2, Detail: "ykd/state"}
	for i := 0; i < 4096; i++ {
		rec.Record(ev)
	}
	m["trace.record_ns"] = perCall(2000, func(int) { rec.Record(ev) })

	body := bytes.Repeat([]byte{0xA5}, 64)
	var buf bytes.Buffer
	var scratch []byte
	m["wire.frame_rt_ns"] = perCall(n, func(int) {
		buf.Reset()
		if err := wire.WriteFrame(&buf, body, 1<<20); err != nil {
			panic(err) // a 64-byte body is within any limit
		}
		got, err := wire.ReadFrame(&buf, scratch, 1<<20)
		if err != nil {
			panic(err)
		}
		scratch = got[:0]
		sink += len(got)
	})
}

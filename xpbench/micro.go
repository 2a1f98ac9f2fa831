package main

import (
	"io"
	"sort"
	"time"

	"expresspass/internal/obs"
	"expresspass/internal/sim"
)

// Layer microbenchmarks, driven from outside the layers through their
// public API. They isolate the scheduler and the trace emit path.

const (
	microReps  = 5
	microSlice = 100 * time.Millisecond
)

// nsPerOp times batches of op until microSlice has passed, microReps
// times, and returns the median nanoseconds per call.
func nsPerOp(op func(n int)) float64 {
	const batch = 4096
	reps := make([]float64, microReps)
	for i := range reps {
		var calls int
		start := time.Now()
		for time.Since(start) < microSlice {
			op(batch)
			calls += batch
		}
		reps[i] = float64(time.Since(start).Nanoseconds()) / float64(calls)
	}
	sort.Float64s(reps)
	return reps[len(reps)/2]
}

func nopHandler(_, _ any, _ uint64) {}

// schedDeltas are the pseudo-random future offsets the scheduler
// microbenchmarks push at: uniform over [1, 2·mean) picoseconds.
func schedDeltas(mean sim.Duration) []sim.Duration {
	rng := sim.NewRand(1)
	d := make([]sim.Duration, 1<<16)
	for i := range d {
		d[i] = 1 + rng.Range(0, 2*mean)
	}
	return d
}

// pushPopNs is one At2 plus one Step at a steady pending-set size.
func pushPopNs(pending int) float64 {
	eng := sim.New(1)
	deltas := schedDeltas(sim.Microsecond)
	for i := 0; i < pending; i++ {
		eng.At2(deltas[i%len(deltas)], nopHandler, nil, nil, 0)
	}
	k := 0
	return nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			eng.At2(eng.Now()+deltas[k&(len(deltas)-1)], nopHandler, nil, nil, 0)
			k++
			eng.Step()
		}
	})
}

// rescheduleNs is one EventID.Reschedule among 1k pending events.
func rescheduleNs() float64 {
	const pending = 1024
	eng := sim.New(1)
	deltas := schedDeltas(sim.Microsecond)
	ids := make([]sim.EventID, pending)
	for i := range ids {
		ids[i] = eng.At2(deltas[i], nopHandler, nil, nil, 0)
	}
	k := 0
	return nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			ids[k&(pending-1)].Reschedule(deltas[k&(len(deltas)-1)])
			k++
		}
	})
}

// emitter holds the tracer the way simulator components do: a field
// that is nil when tracing is off.
type emitter struct{ tr *obs.Tracer }

func (e *emitter) emitNs() float64 {
	ev := obs.Event{T: 12345678, Type: obs.EvDataEnq, Scope: "tor3->h17", Flow: 4711,
		Seq: 1234, Bytes: 1538, Val: 46140, Aux: 1234}
	return nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			ev.Seq = int64(i)
			if e.tr != nil {
				e.tr.Emit(ev)
			}
		}
	})
}

// microMetrics runs every microbenchmark.
func microMetrics() map[string]float64 {
	return map[string]float64{
		"sim.push_pop_ns_1k":  pushPopNs(1 << 10),
		"sim.push_pop_ns_64k": pushPopNs(1 << 16),
		"sim.reschedule_ns":   rescheduleNs(),
		"obs.emit_ns_nil":     (&emitter{}).emitNs(),
		"obs.emit_ns_masked":  (&emitter{obs.NewTracer(obs.NewJSONLSink(io.Discard), obs.EvCreditSent)}).emitNs(),
		"obs.emit_ns_jsonl":   (&emitter{obs.NewTracer(obs.NewJSONLSink(io.Discard))}).emitNs(),
	}
}

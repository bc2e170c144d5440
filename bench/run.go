package main

import (
	"fmt"
	"slices"
	"syscall"
	"time"
)

// driver is the closed-loop load generator: one goroutine that sends the
// next cycle only when the last one completed. A workload with two
// connections uses them from this one goroutine, in the fixed order of
// the cycle's ops, so the load is the same sequence of calls every run.
type driver struct {
	runner    opRunner
	ops       []opSpec
	samples   []uint32 // cycle times of the current window, ns
	cpu       []uint32 // process CPU time of each batch of cpuBatch cycles, ns
	attempted int
	failed    int
	firstErr  error
	tr        *tracer
	ref       *refLoop // the control measured beside every window
}

// maxFailures stops a driver whose connection is evidently broken instead
// of spinning on the same error for the rest of the window.
const maxFailures = 100

// The sandbox's host takes the CPU away for 0.1 to 50 ms at a time, about
// once in a hundred cycles: the slowest 1% of a window's cycles hold 10 to
// 25% of its time, a share that changes from run to run and that nothing
// in the repository can move. Throughput and CPU time are therefore taken
// over the cycles the host left alone.
const (
	// trimPercent is the share of a window's slowest cycles left out of
	// its throughput.
	trimPercent = 5
	// cpuBatch is how many cycles share one reading of the process's CPU
	// time (a system call, so not one per cycle). A window's CPU time per
	// cycle is the median over its batches; two batches in three hold
	// none of the slowest 1% of cycles.
	cpuBatch = 32
)

// maxSamples bounds the per-window sample buffer (4 B a cycle); the
// fastest workload completes under 0.1 M cycles a second.
const maxSamples = 2 << 20

func newDriver(r *rig, in *inputs, ref *refLoop) (*driver, error) {
	a, err := newAFRunner(r, in)
	if err != nil {
		return nil, err
	}
	return &driver{
		runner: a, ops: r.w.ops, ref: ref,
		samples: make([]uint32, 0, maxSamples), cpu: make([]uint32, 0, maxSamples/cpuBatch),
	}, nil
}

// cycle runs one cycle.
func (d *driver) cycle() {
	st := d.runner.state()
	ci := d.tr.begin(cycleSpan, -1, st.n)
	var err error
	for i, op := range d.ops {
		si := d.tr.begin(i, ci, st.n)
		err = d.runner.run(op)
		d.tr.end(si)
		if err != nil {
			break
		}
	}
	st.endCycle()
	d.tr.end(ci)
	d.attempted++
	if err != nil {
		d.failed++
		if d.firstErr == nil {
			d.firstErr = fmt.Errorf("cycle %d: %w", st.n-1, err)
		}
	}
}

// window is what one measured window produced. Times are as measured;
// speed is the factor that brings them to the control's nominal speed.
type window struct {
	wall               time.Duration // time spent cycling, the control's slices excluded
	cycles, failed     int
	cpuUser, cpuSys    time.Duration
	p50us, p99us       float64
	cyclesPerS, mbPerS float64
	cpuUsPerCycle      float64
	speed, refRttNs    float64
	err                error // the control failed
}

func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// runWindow cycles for dur, the control interleaved every workSlice, and
// reports what it measured: percentiles over every cycle's duration (one
// clock reading a cycle: a cycle lasts from the reading before it to the
// reading after it), throughput over the fastest cycles, the median
// batch's process CPU time per cycle, and the control's speed over the
// same stretch. With a tracer the cycles also record spans.
func (d *driver) runWindow(dur time.Duration, tr *tracer) window {
	d.samples, d.cpu = d.samples[:0], d.cpu[:0]
	d.attempted, d.failed = 0, 0
	d.tr = tr
	d.ref.reset()
	st := d.runner.state()
	bytes0 := st.bytes
	var w window
	for begin := time.Now(); time.Since(begin) < dur && d.failed < maxFailures && w.err == nil; {
		u0, s0 := cpuTimes()
		bu, bs := u0, s0
		t0 := time.Now()
		prev := t0
		for n := 1; d.failed < maxFailures; n++ {
			d.cycle()
			now := time.Now()
			if len(d.samples) < cap(d.samples) {
				d.samples = append(d.samples, uint32(min(now.Sub(prev), 1<<32-1)))
			}
			prev = now
			if now.Sub(t0) >= min(workSlice, dur) {
				break
			}
			if n%cpuBatch == 0 {
				u, s := cpuTimes()
				if len(d.cpu) < cap(d.cpu) {
					d.cpu = append(d.cpu, uint32(min((u-bu)+(s-bs), 1<<32-1)))
				}
				bu, bs = u, s
				prev = time.Now() // the reading belongs to no cycle
			}
		}
		w.wall += prev.Sub(t0)
		u1, s1 := cpuTimes()
		w.cpuUser += u1 - u0
		w.cpuSys += s1 - s0
		w.err = d.ref.run(refSlice)
	}
	w.cycles, w.failed = d.attempted, d.failed
	w.speed, w.refRttNs = d.ref.speed()
	slices.Sort(d.samples)
	w.p50us = percentile(d.samples, 0.50) / 1e3
	w.p99us = percentile(d.samples, 0.99) / 1e3
	w.cyclesPerS = 1e9 / trimmedMean(d.samples, trimPercent)
	w.mbPerS = float64(st.bytes-bytes0) / float64(max(1, w.cycles)) / 1e6 * w.cyclesPerS
	w.cpuUsPerCycle = medianNs(d.cpu) / cpuBatch / 1e3
	if len(d.cpu) == 0 && w.cycles > 0 { // the window ended before one batch did
		w.cpuUsPerCycle = float64((w.cpuUser + w.cpuSys).Microseconds()) / float64(w.cycles)
	}
	return w
}

// checkInvariants reads the public counters after a run and returns one
// message per law the run broke.
func (r *rig) checkInvariants() []string {
	var bad []string
	snap := r.srv.Snapshot()
	for _, d := range snap.Devices {
		if d.FramesAccepted != d.FramesBuffered+d.FramesDiscarded {
			bad = append(bad, fmt.Sprintf("%s: frames accepted %d != buffered %d + discarded %d",
				d.Name, d.FramesAccepted, d.FramesBuffered, d.FramesDiscarded))
		}
		if d.FramesDiscarded != 0 {
			bad = append(bad, fmt.Sprintf("%s: %d frames arrived late and were discarded", d.Name, d.FramesDiscarded))
		}
	}
	if snap.ClientErrors != 0 {
		bad = append(bad, fmt.Sprintf("server sent %d error replies", snap.ClientErrors))
	}
	if snap.Evictions != 0 {
		bad = append(bad, fmt.Sprintf("server evicted %d clients", snap.Evictions))
	}
	if r.router != nil {
		if rs := r.router.Snapshot(); rs.FailoversStarted != 0 || rs.RouteErrors != 0 {
			bad = append(bad, fmt.Sprintf("router: %d failovers, %d route errors", rs.FailoversStarted, rs.RouteErrors))
		}
	}
	return bad
}

package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"audiofile/aserver"
	"audiofile/internal/metrics"
)

// metricDef names one metric the benchmark prints. bound is the share of
// the parent's median by which an end-to-end metric may get worse before
// a change counts as a regression; BENCHMARK.json carries the same table
// and a test holds the two together.
type metricDef struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cycles_per_s", "1/s", "higher", 0.25},
	{"audio_mb_per_s", "MB/s", "higher", 0.25},
	{"cycle_p50_us", "us", "lower", 0.15},
	{"cpu_us_per_cycle", "us", "lower", 0.20},
}

var perLayer = []metricDef{
	// Ladder rungs: one cycle's ops at each layer, summed medians.
	{"sampleconv.kernel_ns", "ns", "lower", 0},
	{"core.time_ns", "ns", "lower", 0},
	{"core.play_ns", "ns", "lower", 0},
	{"core.record_ns", "ns", "lower", 0},
	{"core.update_ns", "ns", "lower", 0},
	{"core.self_ns", "ns", "lower", 0},
	{"proto.encode_ns", "ns", "lower", 0},
	{"proto.decode_ns", "ns", "lower", 0},
	{"aserver.pipe_rtt_ns", "ns", "lower", 0},
	{"aserver.self_ns", "ns", "lower", 0},
	{"wire.unix_rtt_ns", "ns", "lower", 0},
	{"wire.tcp_rtt_ns", "ns", "lower", 0},
	{"wire.socket_self_ns", "ns", "lower", 0},
	{"wire.burst32_ns", "ns", "lower", 0},
	{"wire.burst_ns_per_req", "ns", "lower", 0},
	{"arouter.rtt_ns", "ns", "lower", 0},
	{"arouter.hop_ns", "ns", "lower", 0},
	{"af.gettime_ns", "ns", "lower", 0},
	{"af.play_ns", "ns", "lower", 0},
	{"af.record_ns", "ns", "lower", 0},
	{"af.self_ns", "ns", "lower", 0},
	// Shares: layer self time over the traced cycle median.
	{"sampleconv.share", "ratio", "lower", 0},
	{"core.share", "ratio", "lower", 0},
	{"aserver.share", "ratio", "lower", 0},
	{"wire.share", "ratio", "lower", 0},
	{"arouter.share", "ratio", "lower", 0},
	{"af.share", "ratio", "lower", 0},
	// Server and router counters, deltas over the traced run's windows.
	{"aserver.requests_per_cycle", "count", "lower", 0},
	{"aserver.dispatch_play_ns_mean", "ns", "lower", 0},
	{"aserver.dispatch_record_ns_mean", "ns", "lower", 0},
	{"aserver.dispatch_gettime_ns_mean", "ns", "lower", 0},
	{"aserver.lock_wait_ns_mean", "ns", "lower", 0},
	{"aserver.lock_hold_ns_mean", "ns", "lower", 0},
	{"aserver.lock_wait_share", "ratio", "lower", 0},
	{"aserver.dispatch_batch_mean", "count", "higher", 0},
	{"aserver.writev_batch_mean", "count", "higher", 0},
	{"aserver.staged_flushes_per_cycle", "count", "lower", 0},
	{"aserver.send_queue_depth_p99", "count", "lower", 0},
	{"aserver.sched_engine_runs_per_s", "1/s", "lower", 0},
	{"aserver.sched_tick_lag_p99_ns", "ns", "lower", 0},
	{"aserver.parks_started", "count", "lower", 0},
	{"aserver.frames_discarded", "count", "lower", 0},
	{"aserver.evictions", "count", "lower", 0},
	{"arouter.routes", "count", "lower", 0},
	{"arouter.failovers", "count", "lower", 0},
	// The process and the harness itself.
	{"process.allocs_per_cycle", "count", "lower", 0},
	{"process.alloc_bytes_per_cycle", "B", "lower", 0},
	{"process.gc_pause_ns", "ns", "lower", 0},
	{"process.cpu_sys_share", "ratio", "lower", 0},
	{"process.trace_overhead_pct", "%", "lower", 0},
	{"bench.cycle_p99_us", "us", "lower", 0},
	{"bench.ref_rtt_ns", "ns", "lower", 0},
	{"bench.traced_cycle_p50_us", "us", "lower", 0},
	{"bench.harness_ns", "ns", "lower", 0},
	{"bench.spans_dropped", "count", "lower", 0},
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload, end to end or traced.
type result struct {
	workload  string
	attempted int
	failed    int
	problems  []string // why the run is not correct, if it is not
	metrics   map[string]value
	samples   map[string]int       // samples behind each metric
	windows   map[string][]float64 // the per-window values a median was taken over
	raw       map[string]float64   // end to end: the median as measured, before scaling to the control's nominal speed
}

func (res *result) correct() bool { return res.failed == 0 && len(res.problems) == 0 }

func newResult(w *workload) *result {
	return &result{
		workload: w.name, metrics: map[string]value{}, samples: map[string]int{},
		windows: map[string][]float64{}, raw: map[string]float64{},
	}
}

// set records metric name with the unit its definition gives it.
func (res *result) set(defs []metricDef, name string, v float64, samples int) {
	for _, d := range defs {
		if d.name == name {
			res.metrics[name] = value{v, d.unit}
			res.samples[name] = samples
			return
		}
	}
	panic("bench: metric " + name + " is not defined")
}

// perWindow collects one end-to-end metric's value in every window (or
// set-up): as measured, and at the control's nominal speed.
type perWindow struct{ raw, scaled []float64 }

// add records a measured time (or, with rate set, a measured rate) and
// the control's speed factor beside it.
func (p *perWindow) add(v, speed float64, rate bool) {
	p.raw = append(p.raw, v)
	if rate {
		speed = 1 / speed
	}
	p.scaled = append(p.scaled, v*speed)
}

// setMedian records an end-to-end metric as the median of its per-window
// values at the control's nominal speed, and keeps the values and the
// median as measured for the report.
func (res *result) setMedian(name string, p perWindow, samples int) {
	res.set(endToEnd, name, median(p.scaled), samples)
	res.windows[name] = p.scaled
	res.raw[name] = median(p.raw)
}

// count folds a window's cycles and the driver's first error into the
// result.
func (res *result) count(w window, d *driver) {
	res.attempted += w.cycles
	res.failed += w.failed
	if w.err != nil {
		res.violations([]string{w.err.Error()})
	}
	if d.firstErr != nil && len(res.problems) < 8 {
		res.problems = append(res.problems, d.firstErr.Error())
		d.firstErr = nil
	}
}

// violations folds broken counter laws into the result: each is a failure.
func (res *result) violations(bad []string) {
	res.failed += len(bad)
	res.problems = append(res.problems, bad...)
}

// config shapes a run. The command line derives it from -seconds; tests
// shrink it.
type config struct {
	seed        int64
	windows     int           // measured windows per end-to-end run
	window      time.Duration // length of one
	warmup      time.Duration
	traced      time.Duration // what the traced run's windows with spans add up to; as many without beside them
	setups      int           // rig builds timed for setup_s
	ladderCalls int           // timed calls per ladder rung
	outDir      string
}

// windowLen is the length of one measured window. The sandbox this runs
// in loses the CPU in bursts, a few a minute and up to a second long;
// many short windows let the median step over the ones a burst hit, where
// three long ones would each carry part of one.
const windowLen = 500 * time.Millisecond

// configFor turns seconds of end-to-end measurement into windows: 18 s is
// a 2 s warm-up and 36 windows, and a traced run of 4 s with spans beside
// 4 s without.
func configFor(seed int64, seconds int, outDir string) config {
	total := time.Duration(seconds) * time.Second
	return config{
		seed: seed, windows: int(total / windowLen), window: windowLen,
		warmup: total / 9, traced: total * 2 / 9,
		setups: 201, ladderCalls: 20000, outDir: outDir,
	}
}

// runEndToEnd measures a workload with tracing off: set-up timed several
// times, a warm-up, then the measured windows, each metric the median of
// its per-window values.
func runEndToEnd(w *workload, cfg config) (*result, error) {
	res := newResult(w)
	in := makeInputs(w, cfg.seed)
	ref, err := newRefLoop(w.transport, cfg.outDir)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	var r *rig
	var setups perWindow
	for i := 0; i < cfg.setups; i++ {
		if r != nil {
			r.close()
		}
		// Every build starts from the same heap: the last rig collected
		// and its memory back with the OS, so no build is billed a
		// collection it did not cause or spared a page fault by luck.
		debug.FreeOSMemory()
		ref.reset()
		if err := ref.run(refSlice / 4); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if r, err = buildRig(w, cfg.outDir); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		took := time.Since(t0).Seconds()
		if err := ref.run(refSlice / 4); err != nil {
			r.close()
			return nil, err
		}
		speed, _ := ref.speed()
		setups.add(took, speed, false)
	}
	defer r.close()
	res.setMedian("setup_s", setups, cfg.setups)

	d, err := newDriver(r, in, ref)
	if err != nil {
		return nil, err
	}
	res.count(d.runWindow(cfg.warmup, nil), d)
	var cps, mbs, p50, cpu perWindow
	samples := 0 // cycles in the shortest window: the sample count behind each percentile
	for i := 0; i < cfg.windows; i++ {
		win := d.runWindow(cfg.window, nil)
		res.count(win, d)
		cps.add(win.cyclesPerS, win.speed, true)
		mbs.add(win.mbPerS, win.speed, true)
		p50.add(win.p50us, win.speed, false)
		cpu.add(win.cpuUsPerCycle, win.speed, false)
		if i == 0 || win.cycles < samples {
			samples = win.cycles
		}
	}
	res.setMedian("cycles_per_s", cps, samples)
	res.setMedian("audio_mb_per_s", mbs, samples)
	res.setMedian("cycle_p50_us", p50, samples)
	res.setMedian("cpu_us_per_cycle", cpu, samples)
	res.violations(r.checkInvariants())
	return res, nil
}

// histDelta is the histogram of what was observed between two snapshots.
func histDelta(a, b metrics.HistogramSnapshot) metrics.HistogramSnapshot {
	d := metrics.HistogramSnapshot{Count: b.Count - a.Count, Sum: b.Sum - a.Sum}
	before := map[uint8]uint64{}
	for _, bk := range a.Buckets {
		before[bk.Bit] = bk.Count
	}
	for _, bk := range b.Buckets {
		if n := bk.Count - before[bk.Bit]; n > 0 {
			d.Buckets = append(d.Buckets, metrics.Bucket{Bit: bk.Bit, Count: n})
		}
	}
	return d
}

// runTraced produces the per-layer numbers. It goes round ladderRounds
// times: pairs of windows, one untraced and one with spans recorded, then
// one turn of every ladder rung on the same server. What a round measures
// in its windows becomes a metric as the median over the rounds; spans and
// rung samples are pooled. The spans go to outDir/trace-<workload>.json
// after the run.
func runTraced(w *workload, cfg config, env *runEnv) (*result, error) {
	res := newResult(w)
	in := makeInputs(w, cfg.seed)
	r, err := buildRig(w, cfg.outDir)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer r.close()
	ref, err := newRefLoop(w.transport, cfg.outDir)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	d, err := newDriver(r, in, ref)
	if err != nil {
		return nil, err
	}
	res.count(d.runWindow(cfg.warmup, nil), d)

	epoch := time.Now()
	tr := newTracer(epoch)
	g := &rungs{}
	perRound := map[string][]float64{}
	add := func(name string, v float64) { perRound[name] = append(perRound[name], v) }
	pairs := max(1, int(cfg.traced/cfg.window)/ladderRounds)
	cycles, gcPause, gcs := 0, uint64(0), uint32(0)
	var first, last aserver.Snapshot
	for round := 0; round < ladderRounds; round++ {
		var m0, m1 runtime.MemStats
		var both window // the round's windows, traced or not, added up
		s0 := r.srv.Snapshot()
		if round == 0 {
			first = s0
		}
		runtime.ReadMemStats(&m0)
		for i := 0; i < pairs; i++ {
			plain := d.runWindow(cfg.window, nil)
			res.count(plain, d)
			traced := d.runWindow(cfg.window, tr)
			res.count(traced, d)
			// Both windows at the control's nominal speed, so a change of
			// the sandbox's speed between them is not read as overhead.
			add("process.trace_overhead_pct", 100*(traced.p50us*traced.speed/(plain.p50us*plain.speed)-1))
			add("bench.cycle_p99_us", plain.p99us)
			add("bench.traced_cycle_p50_us", traced.p50us)
			add("bench.ref_rtt_ns", traced.refRttNs)
			for _, win := range []window{plain, traced} {
				both.cycles += win.cycles
				both.wall += win.wall
				both.cpuUser += win.cpuUser
				both.cpuSys += win.cpuSys
			}
		}
		runtime.ReadMemStats(&m1)
		last = r.srv.Snapshot()
		cycles += both.cycles
		gcPause += m1.PauseTotalNs - m0.PauseTotalNs
		gcs += m1.NumGC - m0.NumGC
		n := float64(max(1, both.cycles))
		add("process.allocs_per_cycle", float64(m1.Mallocs-m0.Mallocs)/n)
		add("process.alloc_bytes_per_cycle", float64(m1.TotalAlloc-m0.TotalAlloc)/n)
		add("process.cpu_sys_share", both.cpuSys.Seconds()/max(1e-9, (both.cpuUser+both.cpuSys).Seconds()))
		addCounters(add, s0, last, n, both.wall)

		if err := g.turn(r, in, max(1, cfg.ladderCalls/ladderRounds), epoch); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		d.runner.state().restart(r.settle())
	}
	if err := g.finish(w, in, cfg.ladderCalls); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.violations(r.checkInvariants())
	if err := writeTrace(filepath.Join(cfg.outDir, "trace-"+w.name+".json"), env, w, tr, g); err != nil {
		return nil, err
	}

	set := func(name string, v float64, n int) { res.set(perLayer, name, v, n) }
	for name, vals := range perRound {
		set(name, median(vals), cycles)
	}
	calls := cfg.ladderCalls
	dur, harness := spanMedians(tr, len(w.ops))
	cycleNs := res.metrics["bench.traced_cycle_p50_us"].Value * 1e3
	var afTotal float64
	var afKind [numOpKinds]float64 // traced medians, summed per kind of op
	for i, op := range w.ops {
		afTotal += dur[i]
		afKind[op.kind] += dur[i]
	}
	direct := lUnix
	if w.transport == "tcp" {
		direct = lTCP
	}
	top, hop := g.total(direct), 0.0
	if w.routed {
		top, hop = g.total(lRouted), g.total(lRouted)-g.total(lTCP)
	}
	kernel := g.total(lKernel)
	coreSelf := g.total(lCore) - kernel
	serverSelf := g.total(lPipe) - g.total(lCore)
	socketSelf := g.total(direct) - g.total(lPipe)
	afSelf := afTotal - top

	set("sampleconv.kernel_ns", kernel, calls)
	set("core.time_ns", g.byKind[lCore][opGetTime], calls)
	set("core.play_ns", g.byKind[lCore][opPlay]+g.byKind[lCore][opBurst], calls)
	set("core.record_ns", g.byKind[lCore][opRecord], calls)
	set("core.update_ns", g.byKind[lCore][opSync], calls)
	set("core.self_ns", coreSelf, calls)
	set("proto.encode_ns", g.encode, calls)
	set("proto.decode_ns", g.decode, calls)
	set("aserver.pipe_rtt_ns", g.total(lPipe), calls)
	set("aserver.self_ns", serverSelf, calls)
	set("wire.unix_rtt_ns", g.total(lUnix), calls)
	set("wire.tcp_rtt_ns", g.total(lTCP), calls)
	set("wire.socket_self_ns", socketSelf, calls)
	set("wire.burst32_ns", afKind[opBurst], cycles/2)
	set("wire.burst_ns_per_req", afKind[opBurst]/burstReqs, cycles/2)
	set("arouter.rtt_ns", g.total(lRouted), calls)
	set("arouter.hop_ns", hop, calls)
	set("af.gettime_ns", afKind[opGetTime], cycles/2)
	set("af.play_ns", afKind[opPlay], cycles/2)
	set("af.record_ns", afKind[opRecord], cycles/2)
	set("af.self_ns", afSelf, cycles/2)
	for name, self := range map[string]float64{
		"sampleconv.share": kernel, "core.share": coreSelf, "aserver.share": serverSelf,
		"wire.share": socketSelf, "arouter.share": hop, "af.share": afSelf,
	} {
		set(name, self/cycleNs, cycles/2)
	}

	d0, d1 := first.Devices[0], last.Devices[0]
	set("aserver.parks_started", float64(d1.ParksStarted-d0.ParksStarted), 1)
	set("aserver.frames_discarded", float64(d1.FramesDiscarded), 1)
	set("aserver.evictions", float64(last.Evictions), 1)
	var rs aserver.RouterSnapshot
	if r.router != nil {
		rs = r.router.Snapshot()
	}
	set("arouter.routes", float64(rs.Routes), 1)
	set("arouter.failovers", float64(rs.FailoversStarted), 1)
	set("process.gc_pause_ns", float64(gcPause), int(gcs))
	set("bench.harness_ns", harness, cycles/2)
	set("bench.spans_dropped", float64(tr.dropped), 1)
	return res, nil
}

// addCounters adds what the server counted between two snapshots, over
// cycles cycles that took wall, to a round's metrics.
func addCounters(add func(string, float64), s0, s1 aserver.Snapshot, cycles float64, wall time.Duration) {
	d0, d1 := s0.Devices[0], s1.Devices[0]
	lockWait := histDelta(d0.LockWaitNs, d1.LockWaitNs)
	add("aserver.requests_per_cycle", float64(s1.Requests-s0.Requests)/cycles)
	add("aserver.dispatch_play_ns_mean", histDelta(s0.DispatchPlayNs, s1.DispatchPlayNs).Mean())
	add("aserver.dispatch_record_ns_mean", histDelta(s0.DispatchRecordNs, s1.DispatchRecordNs).Mean())
	add("aserver.dispatch_gettime_ns_mean", histDelta(s0.DispatchGetTimeNs, s1.DispatchGetTimeNs).Mean())
	add("aserver.lock_wait_ns_mean", lockWait.Mean())
	add("aserver.lock_hold_ns_mean", histDelta(d0.LockHoldNs, d1.LockHoldNs).Mean())
	add("aserver.lock_wait_share", float64(lockWait.Sum)/float64(wall.Nanoseconds()))
	add("aserver.dispatch_batch_mean", histDelta(d0.DispatchBatch, d1.DispatchBatch).Mean())
	add("aserver.writev_batch_mean", histDelta(s0.WritevBatch, s1.WritevBatch).Mean())
	add("aserver.staged_flushes_per_cycle", float64(s1.StagedFlushes-s0.StagedFlushes)/cycles)
	add("aserver.send_queue_depth_p99", float64(histDelta(s0.SendQueueDepth, s1.SendQueueDepth).Quantile(0.99)))
	add("aserver.sched_engine_runs_per_s", float64(s1.SchedEngineRuns-s0.SchedEngineRuns)/wall.Seconds())
	add("aserver.sched_tick_lag_p99_ns", float64(histDelta(s0.SchedTickLagNs, s1.SchedTickLagNs).Quantile(0.99)))
}

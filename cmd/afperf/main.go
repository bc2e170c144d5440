// afperf regenerates the paper's evaluation (Section 10): every table and
// figure, printed as paper-style rows. Like the paper, functions are
// timed over many iterations; a point is the median call, so one host
// stall does not move it.
//
//	afperf [-exp all|fig10|fig11|fig12|fig13|table10|table11|table12|cpu] [-iters n]
//
// The six MIPS/Alpha host configurations become transport configurations
// on one host (see DESIGN.md): in-process pipe and Unix socket for the
// local cases, TCP loopback for the networked ones, and TCP with injected
// delay for slower wires. Absolute numbers are decades faster than the
// paper's; the shapes — who wins, where the chunking steps fall, mixing
// slower than preempt — are the reproduction targets.
package main

import (
	"flag"
	"fmt"
	"slices"
	"strings"
	"syscall"
	"time"

	"audiofile/af"
	"audiofile/afutil"
	"audiofile/cmd/internal/cmdutil"
	"audiofile/internal/rig"
)

var (
	iters  = flag.Int("iters", 1000, "iterations per measurement (the paper used 1000)")
	quick  = flag.Bool("quick", false, "fewer iterations and configurations")
	expSel = flag.String("exp", "all", "experiment: all|fig10|fig11|fig12|fig13|table10|table11|table12|cpu")
)

func main() {
	flag.Parse()
	if *quick && *iters == 1000 {
		*iters = 100
	}
	configs := rig.StandardConfigs()
	if *quick {
		configs = configs[:3]
	}
	// The data-transfer figures use the undelayed transports.
	undelayed := slices.DeleteFunc(slices.Clone(configs), func(c rig.Config) bool { return c.RTT > 0 })
	var selected []func()
	for _, e := range []struct {
		sel string // the -exp values that run it, besides all
		run func()
	}{
		{"fig10", func() { fig10(configs) }},
		{"fig11 table10", func() { fig11table10(undelayed) }},
		{"fig12 fig13 table11", func() { fig1213table11(undelayed) }},
		{"table12", func() { table12(configs) }},
		{"cpu", cpuUsage},
	} {
		if *expSel == "all" || slices.Contains(strings.Fields(e.sel), *expSel) {
			selected = append(selected, e.run)
		}
	}
	if len(selected) == 0 {
		cmdutil.Die("afperf: unknown experiment %q", *expSel)
	}

	fmt.Printf("afperf: %d iterations per point\n\n", *iters)
	for _, run := range selected {
		run()
	}
}

func newRig(cfg rig.Config) *rig.Rig {
	r, err := rig.Open(cfg)
	check(err)
	return r
}

func check(err error) {
	if err != nil {
		cmdutil.Die("afperf: %v", err)
	}
}

// sweep measures a figure: per config, a fresh rig readied by prepare (if
// set), then a point per size, the median of the calls call returns for
// it. A point takes *iters calls, at most 200 on a delay-injected config
// (slow by construction) and a quarter as many from 32 KiB up. A figure
// with one point per config sweeps the one size 0.
func sweep(configs []rig.Config, sizes []int, prepare func(*rig.Rig), call func(r *rig.Rig, size int) func()) [][]time.Duration {
	times := make([][]time.Duration, len(configs))
	for i, cfg := range configs {
		r := newRig(cfg)
		if prepare != nil {
			prepare(r)
		}
		for _, size := range sizes {
			n := *iters
			if cfg.RTT > 0 {
				n = min(n, 200)
			}
			if size >= 32<<10 {
				n = n/4 + 1
			}
			fn, calls := call(r, size), make([]time.Duration, n)
			for k := range calls {
				start := time.Now()
				fn()
				calls[k] = time.Since(start)
			}
			slices.Sort(calls)
			times[i] = append(times[i], calls[n/2])
		}
		r.Close()
	}
	return times
}

// printTable prints a figure or table: its title and note (if set), a
// header of column labels, and per config a row of cells, right-aligned
// in width, then a blank line.
func printTable(title, note string, width int, cols []string, configs []rig.Config, cells [][]string) {
	fmt.Println(title)
	if note != "" {
		fmt.Println("  " + note)
	}
	row := func(name string, cells []string) {
		fmt.Printf("  %-16s", name)
		for _, c := range cells {
			fmt.Printf(" %*s", width, c)
		}
		fmt.Println()
	}
	row("configuration", cols)
	for i, cfg := range configs {
		row(cfg.Name, cells[i])
	}
	fmt.Println()
}

// rounded formats a sweep's points to the microsecond.
func rounded(times [][]time.Duration) [][]string {
	cells := make([][]string, len(times))
	for i, row := range times {
		for _, d := range row {
			cells[i] = append(cells[i], d.Round(time.Microsecond).String())
		}
	}
	return cells
}

// fig10 reproduces Figure 10: AFGetTime() function timings.
func fig10(configs []rig.Config) {
	times := sweep(configs, []int{0}, nil, func(r *rig.Rig, _ int) func() {
		return func() {
			_, err := r.Conn.GetTime(0)
			check(err)
		}
	})
	printTable("Figure 10: AFGetTime() round-trip time",
		"(paper: 0.8 ms local MIPS, ~2.5 ms networked MIPS/MIPS)",
		12, []string{"time/call"}, configs, rounded(times))
}

var recordSizes = []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10}
var playSizes = []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 24 << 10}

// fig11table10 reproduces Figure 11 (AFRecordSamples timings) and
// Table 10 (record throughput from the slope).
func fig11table10(configs []rig.Config) {
	var now af.ATime
	times := sweep(configs, recordSizes, func(r *rig.Rig) {
		check(r.PrimeRecord())
		now, _ = r.AC.GetTime()
	}, func(r *rig.Rig, size int) func() {
		buf := make([]byte, size)
		start := now.Add(-size)
		return func() {
			if _, got, err := r.AC.RecordSamples(start, buf, true); err != nil || got != size {
				cmdutil.Die("afperf: record %d: got %d err %v", size, got, err)
			}
		}
	})
	printTable("Figure 11: AFRecordSamples() timings (requests hit the record buffer)",
		"(paper: base overhead + linear cost, jumps at 8 KiB chunk boundaries)",
		9, sizeLabels(recordSizes), configs, rounded(times))

	tput := make([][]string, len(times))
	for i := range times {
		tput[i] = []string{slopeTput(recordSizes, times[i], 8<<10, 64<<10)}
	}
	printTable("Table 10: Record throughput (least-squares slope, 8 KiB to 64 KiB)",
		"(paper: 4400 KB/s local alpha .. 580 KB/s mips/mips)",
		14, []string{"KB/sec"}, configs, tput)
}

// fig1213table11 reproduces Figures 12 and 13 (preemptive and mixing
// AFPlaySamples timings) and Table 11 (play throughput for both modes).
func fig1213table11(configs []rig.Config) {
	play := func(preempt bool) [][]time.Duration {
		var start af.ATime
		return sweep(configs, playSizes, func(r *rig.Rig) {
			if preempt {
				check(r.AC.ChangeAttributes(af.ACPreemption, af.ACAttributes{Preempt: true}))
			}
			now, _ := r.AC.GetTime()
			start = now.Add(4000)
		}, func(r *rig.Rig, size int) func() {
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(0x80 + i%64)
			}
			return func() {
				_, err := r.AC.PlaySamples(start, data)
				check(err)
			}
		})
	}
	preempt, mix := play(true), play(false)
	printTable("Figure 12: Preemptive AFPlaySamples() timings (replies suppressed; near-linear)", "",
		9, sizeLabels(playSizes), configs, rounded(preempt))
	printTable("Figure 13: Mixing AFPlaySamples() timings (server mixing cost visible)", "",
		9, sizeLabels(playSizes), configs, rounded(mix))

	tput := make([][]string, len(configs))
	for i := range configs {
		tput[i] = []string{slopeTput(playSizes, mix[i], 1<<10, 16<<10), slopeTput(playSizes, preempt[i], 1<<10, 16<<10)}
	}
	printTable("Table 11: Play throughput (least-squares slope, 1 KiB to 16 KiB)",
		"(paper: preempt always faster than mixing; e.g. alpha 5500 vs 2500 KB/s)",
		12, []string{"Mix KB/s", "Preempt KB/s"}, configs, tput)
}

// table12 reproduces Table 12: the open-loop record/play loopback
// iteration time of §10.1.4.
func table12(configs []rig.Config) {
	var next af.ATime
	times := sweep(configs, []int{0}, func(r *rig.Rig) {
		check(r.PrimeRecord())
		next, _ = r.AC.GetTime()
	}, func(r *rig.Rig, _ int) func() {
		buf := make([]byte, 8000)
		return func() {
			r.Clk.Advance(160)
			now, got, err := r.AC.RecordSamples(next, buf[:160], false)
			check(err)
			if got > 0 {
				_, err := r.AC.PlaySamples(next.Add(4000), buf[:got])
				check(err)
			}
			next = now
		}
	})
	printTable("Table 12: Open-loop record/play loopback iteration",
		"(paper: 0.87 ms local alpha .. 3.45 ms mips/mips)",
		12, []string{"time/iter"}, configs, rounded(times))
}

// cpuUsage reproduces §10.2: process CPU while the server is quiescent
// versus while streaming audio in real time. (Client and server share
// the process here, so the figure bounds the paper's server-only load
// from above.)
func cpuUsage() {
	fmt.Println("CPU usage (§10.2): process CPU while quiescent vs streaming")
	fmt.Println("  (paper: quiescent server ~0%; CODEC clients a few percent of a 1993 CPU)")

	window := 2 * time.Second
	if *quick {
		window = time.Second
	}
	// getrusage counts CPU time in microseconds.
	fmt.Printf("  (user+system CPU from getrusage: 1 µs, %.5f%% of the %v window)\n", 100*time.Microsecond.Seconds()/window.Seconds(), window)

	// Quiescent: a real-time server, its update task running, with no
	// clients doing anything.
	func() {
		r := newRig(rig.Config{Name: "idle", Transport: "pipe", RealTime: true})
		defer r.Close()
		pct := cpuPercentOver(func() { time.Sleep(window) })
		fmt.Printf("  %-28s %6.2f%%\n", "quiescent server", pct)
	}()

	// Streaming: an aplay-style client pushing a continuous 8 kHz CODEC
	// stream against a real-time clock.
	func() {
		r := newRig(rig.Config{Name: "stream", Transport: "pipe", RealTime: true})
		defer r.Close()
		ac, rate := r.AC, 8000
		tone := make([]byte, rate/4)
		afutil.TonePair(440, -13, 550, -13, 0, rate, tone)
		now, _ := ac.GetTime()
		t := now.Add(rate / 4)
		pct := cpuPercentOver(func() {
			deadline := time.Now().Add(window)
			for time.Now().Before(deadline) {
				_, err := ac.PlaySamples(t, tone)
				check(err)
				t = t.Add(len(tone))
				// The server's 4 s buffer gives way more slack than this
				// pacing needs; sleep roughly one block.
				time.Sleep(time.Duration(len(tone)) * time.Second / time.Duration(rate) / 2)
			}
		})
		fmt.Printf("  %-28s %6.2f%%\n", "8 kHz CODEC play stream", pct)
	}()
	fmt.Println()
}

// sizeLabels names sizes as column labels: 1K for 1 KiB.
func sizeLabels(sizes []int) []string {
	labels := make([]string, len(sizes))
	for i, n := range sizes {
		labels[i] = fmt.Sprintf("%dB", n)
		if n >= 1<<10 && n%(1<<10) == 0 {
			labels[i] = fmt.Sprintf("%dK", n>>10)
		}
	}
	return labels
}

// slopeTput fits time = a + size/tput by least squares to the sizes from
// lo to hi and their times, and returns tput in KB/s, or "n/a" when the
// fitted slope is not positive.
func slopeTput(sizes []int, times []time.Duration, lo, hi int) string {
	var n, sx, sy, sxx, sxy float64
	for i, size := range sizes {
		if size < lo || size > hi {
			continue
		}
		x, y := float64(size), times[i].Seconds()
		n, sx, sy, sxx, sxy = n+1, sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	slope := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	if !(slope > 0) {
		return "n/a"
	}
	return fmt.Sprintf("%.0f", 1/slope/1024)
}

// cpuPercentOver runs fn and returns the process CPU consumed during it
// as a percentage of one core's wall time.
func cpuPercentOver(fn func()) float64 {
	before := processCPU()
	start := time.Now()
	fn()
	elapsed := time.Since(start)
	used := processCPU() - before
	if elapsed <= 0 {
		return 0
	}
	return 100 * used.Seconds() / elapsed.Seconds()
}

// processCPU returns the process's cumulative user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		cmdutil.Die("afperf: getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

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
	"os"
	"slices"
	"strings"
	"time"

	"audiofile/af"
	"audiofile/afutil"
	"audiofile/internal/cmdutil"
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
	run := func(name string, fn func([]rig.Config)) {
		if *expSel == "all" || *expSel == name ||
			(strings.HasPrefix(name, "fig") && *expSel == "table"+name[3:]) {
			fn(configs)
		}
	}
	switch *expSel {
	case "all", "fig10", "fig11", "fig12", "fig13", "table10", "table11", "table12", "cpu":
	default:
		cmdutil.Die("afperf: unknown experiment %q", *expSel)
	}

	fmt.Printf("afperf: %d iterations per point\n\n", *iters)
	run("fig10", fig10)
	if *expSel == "all" || *expSel == "fig11" || *expSel == "table10" {
		fig11table10(configs)
	}
	if *expSel == "all" || *expSel == "fig12" || *expSel == "fig13" || *expSel == "table11" {
		fig1213table11(configs)
	}
	run("table12", table12)
	if *expSel == "all" || *expSel == "cpu" {
		cpuUsage()
	}
}

func newRig(cfg rig.Config) *rig.Rig {
	r, err := rig.Open(cfg)
	if err != nil {
		cmdutil.Die("afperf: %v", err)
	}
	return r
}

// measure times each of n calls of fn and returns the median.
func measure(n int, fn func()) time.Duration {
	calls := make([]time.Duration, n)
	for i := range calls {
		start := time.Now()
		fn()
		calls[i] = time.Since(start)
	}
	slices.Sort(calls)
	return calls[n/2]
}

// fig10 reproduces Figure 10: AFGetTime() function timings.
func fig10(configs []rig.Config) {
	fmt.Println("Figure 10: AFGetTime() round-trip time")
	fmt.Println("  (paper: 0.8 ms local MIPS, ~2.5 ms networked MIPS/MIPS)")
	fmt.Printf("  %-16s %12s\n", "configuration", "time/call")
	for _, cfg := range configs {
		r := newRig(cfg)
		n := *iters
		if cfg.RTT > 0 && n > 200 {
			n = 200 // delay-injected configs are slow by construction
		}
		d := measure(n, func() {
			if _, err := r.Conn.GetTime(0); err != nil {
				cmdutil.Die("afperf: %v", err)
			}
		})
		fmt.Printf("  %-16s %12s\n", cfg.Name, d.Round(time.Microsecond))
		r.Close()
	}
	fmt.Println()
}

var recordSizes = []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10}
var playSizes = []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 24 << 10}

// fig11table10 reproduces Figure 11 (AFRecordSamples timings) and
// Table 10 (record throughput from the slope).
func fig11table10(configs []rig.Config) {
	fmt.Println("Figure 11: AFRecordSamples() timings (requests hit the record buffer)")
	fmt.Println("  (paper: base overhead + linear cost, jumps at 8 KiB chunk boundaries)")
	fmt.Printf("  %-16s", "configuration")
	for _, s := range recordSizes {
		fmt.Printf(" %9s", sizeLabel(s))
	}
	fmt.Println()
	type row struct {
		cfg   rig.Config
		times []time.Duration
	}
	var rows []row
	for _, cfg := range configs {
		if cfg.RTT > 0 {
			continue // data-transfer figures use the undelayed transports
		}
		r := newRig(cfg)
		if err := r.PrimeRecord(); err != nil {
			cmdutil.Die("afperf: %v", err)
		}
		now, _ := r.AC.GetTime()
		var times []time.Duration
		fmt.Printf("  %-16s", cfg.Name)
		for _, size := range recordSizes {
			buf := make([]byte, size)
			start := now.Add(-size)
			n := *iters
			if size >= 32<<10 {
				n = n/4 + 1
			}
			d := measure(n, func() {
				if _, got, err := r.AC.RecordSamples(start, buf, true); err != nil || got != size {
					cmdutil.Die("afperf: record %d: got %d err %v", size, got, err)
				}
			})
			times = append(times, d)
			fmt.Printf(" %9s", d.Round(time.Microsecond))
		}
		fmt.Println()
		rows = append(rows, row{cfg, times})
		r.Close()
	}
	fmt.Println()
	fmt.Println("Table 10: Record throughput (least-squares slope, 8 KiB to 64 KiB)")
	fmt.Println("  (paper: 4400 KB/s local alpha .. 580 KB/s mips/mips)")
	fmt.Printf("  %-16s %14s\n", "configuration", "KB/sec")
	for _, rw := range rows {
		fmt.Printf("  %-16s %14s\n", rw.cfg.Name, slopeTput(recordSizes, rw.times, 8<<10, 64<<10))
	}
	fmt.Println()
}

// fig1213table11 reproduces Figures 12 and 13 (preemptive and mixing
// AFPlaySamples timings) and Table 11 (play throughput for both modes).
func fig1213table11(configs []rig.Config) {
	type row struct {
		cfg     rig.Config
		preempt []time.Duration
		mix     []time.Duration
	}
	var rows []row
	for _, cfg := range configs {
		if cfg.RTT > 0 {
			continue
		}
		rw := row{cfg: cfg}
		for _, preempt := range []bool{true, false} {
			r := newRig(cfg)
			if preempt {
				if err := r.AC.ChangeAttributes(af.ACPreemption, af.ACAttributes{Preempt: true}); err != nil {
					cmdutil.Die("afperf: %v", err)
				}
			}
			now, _ := r.AC.GetTime()
			start := now.Add(4000)
			for _, size := range playSizes {
				data := make([]byte, size)
				for i := range data {
					data[i] = byte(0x80 + i%64)
				}
				d := measure(*iters, func() {
					if _, err := r.AC.PlaySamples(start, data); err != nil {
						cmdutil.Die("afperf: %v", err)
					}
				})
				if preempt {
					rw.preempt = append(rw.preempt, d)
				} else {
					rw.mix = append(rw.mix, d)
				}
			}
			r.Close()
		}
		rows = append(rows, rw)
	}

	for _, fig := range []struct {
		title string
		pick  func(row) []time.Duration
	}{
		{"Figure 12: Preemptive AFPlaySamples() timings (replies suppressed; near-linear)",
			func(r row) []time.Duration { return r.preempt }},
		{"Figure 13: Mixing AFPlaySamples() timings (server mixing cost visible)",
			func(r row) []time.Duration { return r.mix }},
	} {
		fmt.Println(fig.title)
		fmt.Printf("  %-16s", "configuration")
		for _, s := range playSizes {
			fmt.Printf(" %9s", sizeLabel(s))
		}
		fmt.Println()
		for _, rw := range rows {
			fmt.Printf("  %-16s", rw.cfg.Name)
			for _, d := range fig.pick(rw) {
				fmt.Printf(" %9s", d.Round(time.Microsecond))
			}
			fmt.Println()
		}
		fmt.Println()
	}

	fmt.Println("Table 11: Play throughput (least-squares slope, 1 KiB to 16 KiB)")
	fmt.Println("  (paper: preempt always faster than mixing; e.g. alpha 5500 vs 2500 KB/s)")
	fmt.Printf("  %-16s %12s %12s\n", "configuration", "Mix KB/s", "Preempt KB/s")
	for _, rw := range rows {
		mixT := slopeTput(playSizes, rw.mix, 1<<10, 16<<10)
		preT := slopeTput(playSizes, rw.preempt, 1<<10, 16<<10)
		fmt.Printf("  %-16s %12s %12s\n", rw.cfg.Name, mixT, preT)
	}
	fmt.Println()
}

// table12 reproduces Table 12: the open-loop record/play loopback
// iteration time of §10.1.4.
func table12(configs []rig.Config) {
	fmt.Println("Table 12: Open-loop record/play loopback iteration")
	fmt.Println("  (paper: 0.87 ms local alpha .. 3.45 ms mips/mips)")
	fmt.Printf("  %-16s %12s\n", "configuration", "time/iter")
	for _, cfg := range configs {
		r := newRig(cfg)
		if err := r.PrimeRecord(); err != nil {
			cmdutil.Die("afperf: %v", err)
		}
		next, _ := r.AC.GetTime()
		buf := make([]byte, 8000)
		n := *iters
		if cfg.RTT > 0 && n > 200 {
			n = 200
		}
		d := measure(n, func() {
			r.Clk.Advance(160)
			now, got, err := r.AC.RecordSamples(next, buf[:160], false)
			if err != nil {
				cmdutil.Die("afperf: %v", err)
			}
			if got > 0 {
				if _, err := r.AC.PlaySamples(next.Add(4000), buf[:got]); err != nil {
					cmdutil.Die("afperf: %v", err)
				}
			}
			next = now
		})
		fmt.Printf("  %-16s %12s\n", cfg.Name, d.Round(time.Microsecond))
		r.Close()
	}
	fmt.Println()
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

	// Quiescent: a real-time server with no clients doing anything.
	func() {
		r := newRig(rig.Config{Name: "idle", Transport: "pipe"})
		defer r.Close()
		pct := cpuPercentOver(window, func() { time.Sleep(window) })
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
		pct := cpuPercentOver(window, func() {
			deadline := time.Now().Add(window)
			for time.Now().Before(deadline) {
				if _, err := ac.PlaySamples(t, tone); err != nil {
					cmdutil.Die("afperf: %v", err)
				}
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

func sizeLabel(n int) string {
	if n >= 1<<10 && n%(1<<10) == 0 {
		return fmt.Sprintf("%dK", n>>10)
	}
	return fmt.Sprintf("%dB", n)
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
func cpuPercentOver(window time.Duration, fn func()) float64 {
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

// processCPU reads the process's cumulative user+system CPU time from
// /proc/self/stat (fields 14 and 15, in clock ticks).
func processCPU() time.Duration {
	data, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0
	}
	// The comm field can contain spaces; skip past the closing paren.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0
	}
	fields := strings.Fields(s[i+1:])
	// After ')', field 0 is state; utime is field 11, stime field 12.
	if len(fields) < 13 {
		return 0
	}
	var utime, stime int64
	fmt.Sscanf(fields[11], "%d", &utime) //nolint:errcheck
	fmt.Sscanf(fields[12], "%d", &stime) //nolint:errcheck
	const hz = 100                       // USER_HZ on Linux
	return time.Duration(utime+stime) * time.Second / hz
}

// Command bench is the repository's performance ledger: one command, five
// workloads, and a ladder that prices every layer a request crosses.
//
//	go run ./bench                         every workload, end to end then traced
//	go run ./bench -workload mixplay       one workload
//	go run ./bench -repeat 2               the whole suite twice, spreads against bounds
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//
// The last form is the one BENCHMARK.json names: its last line of output
// is one JSON object with the end-to-end metrics (-trace 0) or the
// per-layer metrics (-trace 1). See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runEnv is the environment every run record carries.
type runEnv struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Windows    int     `json:"windows"`
	WindowS    float64 `json:"window_s"`
	WarmupS    float64 `json:"warmup_s"`
	TracedS    float64 `json:"traced_window_s"`
	Transport  string  `json:"transport"`
	Load       string  `json:"load"`
}

// outDir is where traces and sockets go, relative to the checkout the
// command runs in; .gitignore names it.
const outDir = "bench/out"

const transportLine = "unix / TCP loopback, in-process server (no real link is crossed)"

func newEnv(w *workload, cfg config) *runEnv {
	return &runEnv{
		Commit: commit(), GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload: w.name, Seed: cfg.seed,
		Windows: cfg.windows, WindowS: cfg.window.Seconds(), WarmupS: cfg.warmup.Seconds(),
		TracedS:   cfg.traced.Seconds(),
		Transport: transportLine,
		Load:      fmt.Sprintf("closed loop, one process, one driver goroutine, %d connection(s) over %s", len(w.preempt), w.transport),
	}
}

func (e *runEnv) json() string {
	b, err := json.Marshal(e)
	if err != nil {
		return "{}"
	}
	return string(b)
}

// commit names the source being measured: the HEAD of the checkout the
// command runs in (go run leaves no VCS stamp in the binary), or "unknown"
// in an exported tree that is not a repository.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", name))
		if err != nil {
			return name
		}
		ref = strings.TrimSpace(string(b))
	}
	return ref
}

// printResult prints one run for a reader: environment, every metric with
// its unit and sample count, and what went wrong if anything did.
func printResult(env *runEnv, defs []metricDef, res *result, title string) {
	fmt.Printf("\n== %s: %s (seed %d) ==\n", res.workload, title, env.Seed)
	fmt.Printf("commit %s, %s, nproc %d, GOMAXPROCS %d\n", env.Commit, env.GoVersion, env.NProc, env.GOMAXPROCS)
	fmt.Printf("transport: %s\n", env.Transport)
	fmt.Printf("load: %s\n", env.Load)
	fmt.Printf("windows: warm-up %.2fs, %d x %.2fs end to end (median of windows); traced run %.2fs with spans beside as much without, in %d rounds with the ladder\n",
		env.WarmupS, env.Windows, env.WindowS, env.TracedS, ladderRounds)
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			continue
		}
		bound := ""
		if d.bound > 0 {
			bound = fmt.Sprintf("  bound %.0f%%", d.bound*100)
		}
		fmt.Printf("  %-34s %14.6g %-6s %s is better, n=%d%s\n", d.name, v.Value, v.Unit, d.better, res.samples[d.name], bound)
		if vals := res.windows[d.name]; len(vals) > 0 {
			fmt.Printf("  %-34s as measured %.6g; at the control's nominal speed, median of %.4g\n", "", res.raw[d.name], vals)
		}
	}
	rate := 0.0
	if res.attempted > 0 {
		rate = float64(res.failed) / float64(res.attempted)
	}
	fmt.Printf("  %-34s %14.6f %-6s failed %d of %d attempted cycles\n", "error_rate", rate, "ratio", res.failed, res.attempted)
	for _, p := range res.problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
}

// resultLine is the machine-readable last line of a run.
func resultLine(results ...*result) string {
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, res := range results {
		out.Correct = out.Correct && res.correct()
		out.Attempted += res.attempted
		out.Failed += res.failed
		for k, v := range res.metrics {
			out.Metrics[k] = v
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// runWorkload runs one workload in the requested modes (trace < 0: both)
// and returns the end-to-end and traced results, either of which may be
// nil.
func runWorkload(w *workload, cfg config, trace int) (e2e, traced *result, err error) {
	env := newEnv(w, cfg)
	if trace != 1 {
		if e2e, err = runEndToEnd(w, cfg); err != nil {
			return nil, nil, err
		}
		printResult(env, endToEnd, e2e, "end to end, tracing off")
	}
	if trace != 0 {
		if traced, err = runTraced(w, cfg, env); err != nil {
			return nil, nil, err
		}
		printResult(env, perLayer, traced, "per layer, traced run and ladder")
		fmt.Printf("  trace written to %s\n", filepath.Join(cfg.outDir, "trace-"+w.name+".json"))
	}
	return e2e, traced, nil
}

// compareRuns prints, per workload and end-to-end metric, the value from
// each repeat, their relative spread and the bound, and reports whether
// every spread stayed within its bound.
func compareRuns(runs [][]*result) bool {
	ok := true
	fmt.Printf("\n== repeat: spread between runs of the same code, against each metric's bound ==\n")
	for wi := range runs[0] {
		for _, d := range endToEnd {
			lo, hi := runs[0][wi].metrics[d.name].Value, runs[0][wi].metrics[d.name].Value
			vals := ""
			for _, run := range runs {
				v := run[wi].metrics[d.name].Value
				lo, hi = min(lo, v), max(hi, v)
				vals += fmt.Sprintf(" %12.6g", v)
			}
			s := spread(lo, hi)
			verdict := "ok"
			if s > d.bound {
				verdict, ok = "EXCEEDS BOUND", false
			}
			fmt.Printf("  %-12s %-18s%s %-5s spread %5.2f%%  bound %3.0f%%  %s\n",
				runs[0][wi].workload, d.name, vals, d.unit, s*100, d.bound*100, verdict)
		}
	}
	return ok
}

func main() {
	name := flag.String("workload", "", "workload to run (default: all): smallop, mixplay, hifi_duplex, loopback, routed")
	seed := flag.Int64("seed", 1, "seed for payload sample values, start offsets and burst order")
	seconds := flag.Int("seconds", 18, "measured seconds per end-to-end run, split into 3 windows")
	trace := flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; default both")
	repeat := flag.Int("repeat", 1, "run everything this many times and compare the runs")
	flag.Parse()

	// One P unless the environment says otherwise. Every workload is one
	// closed loop, so a second P adds no work in parallel, only a wake-up
	// across CPUs at each hand-off between client and server goroutines;
	// on the 2-vCPU sandbox that wake-up was half of a routed cycle and
	// moved by 20% between identical runs.
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}

	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []*workload{w}
	}
	if *seconds < 1 || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -repeat must be at least 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	cfg := configFor(*seed, *seconds, outDir)

	start := time.Now()
	var all []*result
	var runs [][]*result
	for rep := 0; rep < *repeat; rep++ {
		var e2es []*result
		for _, w := range selected {
			e2e, traced, err := runWorkload(w, cfg, *trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				os.Exit(1)
			}
			for _, res := range []*result{e2e, traced} {
				if res != nil {
					all = append(all, res)
				}
			}
			e2es = append(e2es, e2e)
		}
		runs = append(runs, e2es)
	}
	ok := true
	if *repeat > 1 && *trace != 1 {
		ok = compareRuns(runs)
	}
	fmt.Printf("\nbench: %d run(s) in %.1fs\n", len(all), time.Since(start).Seconds())
	if len(selected) == 1 && *repeat == 1 {
		// The form BENCHMARK.json names: one workload, one result line.
		fmt.Println(resultLine(all...))
	}
	for _, res := range all {
		ok = ok && res.correct()
	}
	if !ok {
		os.Exit(1)
	}
}

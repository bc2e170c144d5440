package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	s := make([]uint32, 100)
	for i := range s {
		s[i] = uint32(i + 1) // 1..100
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}, {0.501, 51}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]uint32{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// Nearest rank never interpolates between two cycle classes.
	if got := percentile([]uint32{10, 10, 1000, 1000}, 0.5); got != 10 {
		t.Errorf("median of {10,10,1000,1000} = %v, want an observed value 10", got)
	}
}

func TestMedianOfWindows(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4.85, 4.76, 9.9}, 4.85}, // one disturbed window does not move the result
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{5}, 5},
		{nil, 0},
	} {
		in := append([]float64(nil), c.in...)
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		if !reflect.DeepEqual(in, c.in) && len(in) > 0 {
			t.Errorf("median reordered its argument: %v", c.in)
		}
	}
	if got := spread(95, 105); got != 0.1 {
		t.Errorf("spread(95, 105) = %v, want 0.1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// 0: cycle [0,100)
	//   1: child [10,40)
	//   2: child [30,60)   overlaps 1: the union [10,60) is covered once
	//   3: child [90,120)  runs past the parent: clipped to [90,100)
	//     4: grandchild [95,110) covers part of 3 only
	// 5: second root [200,250) with no children
	spans := []span{
		{start: 0, end: 100, parent: -1},
		{start: 10, end: 40, parent: 0},
		{start: 30, end: 60, parent: 0},
		{start: 90, end: 120, parent: 0},
		{start: 95, end: 110, parent: 3},
		{start: 200, end: 250, parent: -1},
	}
	want := []int64{100 - 50 - 10, 30, 30, 30 - 15, 15, 50}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	// A child recorded out of start order is still merged correctly.
	spans[1], spans[2] = spans[2], spans[1]
	want[1], want[2] = want[2], want[1]
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes (children swapped) = %v, want %v", got, want)
	}
}

// wireBytes is every request byte a workload's ladder would send for a seed.
func wireBytes(t *testing.T, w *workload, seed int64) []byte {
	t.Helper()
	in := makeInputs(w, seed)
	var buf bytes.Buffer
	for _, op := range w.ops {
		for v := 0; v < variants; v++ {
			wo, err := buildWireOp(w, in, op, v)
			if err != nil {
				t.Fatal(err)
			}
			wo.setTime(uint32(op.lead + in.playOff[v]))
			buf.Write(wo.req)
		}
	}
	buf.Write(in.stream)
	return buf.Bytes()
}

func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, b, c := wireBytes(t, w, 1), wireBytes(t, w, 1), wireBytes(t, w, 2)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed generated different request bytes", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 generated the same request bytes", w.name)
		}
		if !reflect.DeepEqual(makeInputs(w, 7), makeInputs(w, 7)) {
			t.Errorf("%s: the same seed generated different inputs", w.name)
		}
	}
}

// TestManifest holds BENCHMARK.json and the tables in bench.go together.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var m struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, bench has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest has %q (%q), bench has %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest lists %d metrics, bench has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s metric %d: manifest has %+v, bench has %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(m.Command, want) || !reflect.DeepEqual(m.Paths, []string{"bench"}) {
		t.Errorf("manifest runs %v over %v, want %v over [bench]", m.Command, m.Paths, want)
	}
}

// TestSmoke runs every workload for a fraction of a second, end to end and
// traced, and checks every named metric comes out with its unit and that
// nothing failed.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{
				seed: 1, windows: 3, window: 25 * time.Millisecond, warmup: 10 * time.Millisecond,
				traced: 25 * time.Millisecond, setups: 1, ladderCalls: 40, outDir: t.TempDir(),
			}
			e2e, err := runEndToEnd(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runTraced(w, cfg, newEnv(w, cfg))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				res  *result
				defs []metricDef
			}{{e2e, endToEnd}, {traced, perLayer}} {
				if !c.res.correct() || c.res.attempted == 0 {
					t.Errorf("failed %d of %d cycles: %v", c.res.failed, c.res.attempted, c.res.problems)
				}
				for _, d := range c.defs {
					v, ok := c.res.metrics[d.name]
					if !ok || v.Unit != d.unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %q", d.name, v, ok, d.unit)
					}
					if d.bound > 0 && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, v.Value)
					}
				}
				if len(c.res.metrics) != len(c.defs) {
					t.Errorf("%d metrics emitted, %d defined", len(c.res.metrics), len(c.defs))
				}
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]value
			}
			if err := json.Unmarshal([]byte(resultLine(e2e)), &line); err != nil || !line.Correct || len(line.Metrics) != len(endToEnd) {
				t.Errorf("result line %+v: %v", line, err)
			}
			raw, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tr struct {
				Spans []struct {
					Name   string
					Parent int
				}
				Ladder struct{ Rungs []struct{ Name string } }
			}
			if err := json.Unmarshal(raw, &tr); err != nil {
				t.Fatalf("trace file is not JSON: %v", err)
			}
			if len(tr.Spans) == 0 || tr.Spans[0].Name != "cycle" || tr.Spans[0].Parent != -1 || len(tr.Ladder.Rungs) == 0 {
				t.Errorf("trace has %d spans, %d ladder rungs", len(tr.Spans), len(tr.Ladder.Rungs))
			}
		})
	}
}

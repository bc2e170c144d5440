package aserver

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"audiofile/internal/metrics"
)

// moveStep spaces the amounts metricMover gives the fields: far more
// than a timer pass that was already on its way at Close can add to a
// lock or tick-lag histogram, so each amount stays recognizable.
const moveStep = 1 << 32

// metricMover zeroes every metrics.Counter, Gauge and Histogram field of
// the sets it is given, then moves each by its own amount.
type metricMover struct {
	moved []movedField
}

type movedField struct {
	name   string // Set.field
	amount uint64
}

func (m *metricMover) move(t *testing.T, set any) {
	t.Helper()
	v := reflect.ValueOf(set).Elem()
	for i := 0; i < v.NumField(); i++ {
		sf := v.Type().Field(i)
		name := v.Type().Name() + "." + sf.Name
		if sf.Type.Kind() == reflect.Pointer && sf.Type.Elem().PkgPath() == "audiofile/internal/metrics" {
			t.Errorf("%s is a pointer; a metric is a value field", name)
			continue
		}
		f := reflect.NewAt(sf.Type, unsafe.Pointer(v.Field(i).UnsafeAddr()))
		amount := uint64(len(m.moved)+1) * moveStep
		switch x := f.Interface().(type) {
		case *metrics.Counter:
			f.Elem().SetZero()
			x.Add(amount)
		case *metrics.Gauge:
			f.Elem().SetZero()
			x.Add(int64(amount))
		case *metrics.Histogram:
			f.Elem().SetZero()
			x.Observe(int64(amount)) // its sum
		default:
			continue
		}
		m.moved = append(m.moved, movedField{name, amount})
	}
}

// requireIn fails for every moved field whose amount is missing from
// snap's JSON.
func (m *metricMover) requireIn(t *testing.T, snap any) {
	t.Helper()
	if len(m.moved) == 0 {
		t.Fatal("no metric fields found")
	}
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var tree any
	if err := json.Unmarshal(b, &tree); err != nil {
		t.Fatal(err)
	}
	found := make(map[uint64]bool)
	var walk func(any)
	walk = func(x any) {
		switch x := x.(type) {
		case float64:
			if x >= moveStep {
				found[uint64(x)/moveStep*moveStep] = true
			}
		case []any:
			for _, e := range x {
				walk(e)
			}
		case map[string]any:
			for _, e := range x {
				walk(e)
			}
		}
	}
	walk(tree)
	for _, f := range m.moved {
		if !found[f.amount] {
			t.Errorf("%s does not reach %T's JSON", f.name, snap)
		}
	}
}

// TestMetricsReachStats: /stats is the only export, so every metric
// field of serverMetrics, engineMetrics, routerMetrics and routerBackend
// must show up in the Snapshot or RouterSnapshot JSON it serves. A
// metric added to a set but not to its snapshot fails here.
func TestMetricsReachStats(t *testing.T) {
	srv, err := New(Options{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close() // stops the engines' timers (see moveStep)
	var sm metricMover
	sm.move(t, &srv.sm)
	for _, e := range srv.engines {
		sm.move(t, &e.m)
	}
	sm.requireIn(t, srv.Snapshot())

	r, err := NewRouter(RouterOptions{
		Backends:      []string{"127.0.0.1:1", "127.0.0.1:2"},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	var rm metricMover
	rm.move(t, &r.rm)
	for _, b := range r.backends {
		rm.move(t, b)
	}
	rm.requireIn(t, r.Snapshot())
}

package metrics

import (
	"fmt"
	"sync"
	"testing"
)

// TestEventLogRing: sequence numbers run from 1 without gaps, the ring
// keeps the newest logSize events, and Since reports what it overwrote.
func TestEventLogRing(t *testing.T) {
	var l Log
	for i := 0; i < logSize+10; i++ {
		l.Record(Health, fmt.Sprint(i), "")
	}
	for _, tc := range []struct {
		since, first, n, lost uint64
	}{
		{0, 11, logSize, 10},
		{5, 11, logSize, 5},
		{10, 11, logSize, 0},
		{logSize, logSize + 1, 10, 0},
		{logSize + 10, 0, 0, 0},
	} {
		evs, lost := l.Since(tc.since)
		if uint64(len(evs)) != tc.n || lost != tc.lost {
			t.Errorf("Since(%d): %d events, %d lost; want %d, %d", tc.since, len(evs), lost, tc.n, tc.lost)
			continue
		}
		for i, ev := range evs {
			if want := tc.first + uint64(i); ev.Seq != want || ev.Subject != fmt.Sprint(want-1) {
				t.Errorf("Since(%d)[%d] = #%d %q, want #%d", tc.since, i, ev.Seq, ev.Subject, want)
				break
			}
		}
	}
}

// TestEventLogTotals: a total per kind, counting the events the ring has
// overwritten, and a printed line per event carrying its sequence number.
func TestEventLogTotals(t *testing.T) {
	var l Log
	var lines []string
	l.Logf = func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	l.Record(Redirect, "b0", "to 10.0.0.1:7000")
	for i := 0; i < logSize; i++ {
		l.Record(Shed, "pipe", "over budget")
	}
	s := l.Snapshot()
	if s.Totals[Redirect] != 1 || s.Totals[Shed] != logSize || len(s.Totals) != 2 || s.Lost != 1 {
		t.Errorf("totals %v, %d lost; want 1 redirect, %d sheds, 1 lost", s.Totals, s.Lost, logSize)
	}
	if len(lines) != logSize+1 || lines[0] != "redirect #1 b0: to 10.0.0.1:7000" {
		t.Errorf("%d lines, the first %q", len(lines), lines[0])
	}
}

// TestEventLogConcurrent: concurrent Records each take their own number.
func TestEventLogConcurrent(t *testing.T) {
	var l Log
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.Record(DialError, "b", "")
			}
		}()
	}
	wg.Wait()
	evs, lost := l.Since(0)
	if len(evs) != 200 || lost != 0 || evs[199].Seq != 200 || l.Snapshot().Totals[DialError] != 200 {
		t.Errorf("%d events, %d lost, last #%d", len(evs), lost, evs[len(evs)-1].Seq)
	}
}

// astat polls an AudioFile server's stats endpoint (afd -stats) and
// renders a live one-line-per-device summary, in the spirit of vmstat:
//
//	astat [-a host:port] [-i interval] [-n count] [-once] [-top N] [-agg]
//	astat -router [-a host:port] ...     poll an arouter instead
//
// With -router the address is an arouter's -stats endpoint: each tick
// prints the fleet view (setup redirects, proxied session routes and
// byte rates, failover counters, per-backend health).
//
// Each tick prints one line per device with the deltas since the last
// scrape (bytes and frames per interval, underruns, parks) plus the
// dispatch p99 for the hot ops. With hundreds or thousands of devices
// (the PBX workloads) the full table is unusable: -top N keeps only the
// N busiest devices per tick, and -agg drops the per-device rows
// entirely for one server-wide line per tick, including the update
// plane's health (engine update rate, tick-lag p99). -once prints a
// single absolute snapshot and exits, which is also the scriptable mode.
//
// Under each tick astat prints the server's or router's events newer than
// its last scrape, one line each with its sequence number (evictions,
// sheds, refusals, health transitions, failovers...); -once prints every
// event the log still holds.
//
// Every snapshot astat renders absolutely, and every router tick, is held
// to the live form of its conservation laws (Snapshot.Check,
// RouterSnapshot.Check); a broken law means the server's
// instrumentation is broken and is reported on stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"time"

	"audiofile/aserver"
	"audiofile/cmd/internal/cmdutil"
	"audiofile/internal/metrics"
)

var (
	addr     = flag.String("a", "localhost:7800", "stats address of the server (afd -stats)")
	interval = flag.Duration("i", time.Second, "polling interval")
	count    = flag.Int("n", 0, "number of intervals to print (0 = until interrupted)")
	once     = flag.Bool("once", false, "print one absolute snapshot and exit")
	top      = flag.Int("top", 0, "show only the N busiest devices per tick, by byte rate (0 = all)")
	agg      = flag.Bool("agg", false, "aggregate only: one server-wide line per tick, no per-device rows")
	routerMd = flag.Bool("router", false, "the address is an arouter -stats endpoint: show fleet routing stats")
)

func main() {
	flag.Parse()
	url := "http://" + *addr + "/stats"

	if *routerMd {
		events := func(s aserver.RouterSnapshot) metrics.LogSnapshot { return s.Events }
		poll(url, events, printRouterAbsolute, routerHeader, printRouterDelta)
		return
	}
	delta := printDelta
	if *agg {
		delta = printAggregate
	}
	poll(url, func(s aserver.Snapshot) metrics.LogSnapshot { return s.Events }, printAbsolute, header, delta)
}

// poll scrapes url's snapshot. With -once it prints it absolutely, held
// to its laws, and its events, and returns; otherwise it prints one delta
// per interval, with the header before the first and every twentieth,
// and the events newer than the scrape before.
func poll[T interface{ Check(bool) error }](url string, events func(T) metrics.LogSnapshot, absolute func(T), header func(), delta func(prev, cur T, dt time.Duration)) {
	prev, err := scrape[T](url)
	if err != nil {
		cmdutil.Die("astat: %v", err)
	}
	if *once {
		absolute(prev)
		printEvents(events(prev), 0)
		warn(prev.Check(false))
		return
	}
	header()
	for tick := 0; *count == 0 || tick < *count; tick++ {
		time.Sleep(*interval)
		cur, err := scrape[T](url)
		if err != nil {
			cmdutil.Die("astat: %v", err)
		}
		if tick%20 == 0 && tick > 0 {
			header()
		}
		delta(prev, cur, *interval)
		if evs := events(prev).Events; len(evs) > 0 {
			printEvents(events(cur), evs[len(evs)-1].Seq)
		} else {
			printEvents(events(cur), 0)
		}
		prev = cur
	}
}

// scrape fetches and decodes one snapshot: an aserver.Snapshot from afd,
// an aserver.RouterSnapshot from arouter.
func scrape[T any](url string) (T, error) {
	var snap T
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("%s: %s", url, resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

// printEvents prints log's events numbered above since, first saying how
// many of those the log had overwritten.
func printEvents(log metrics.LogSnapshot, since uint64) {
	for i, ev := range log.Events {
		if i == 0 && ev.Seq > since+1 {
			fmt.Printf("event: %d lost\n", ev.Seq-since-1)
		}
		if ev.Seq > since {
			fmt.Printf("event #%d %s %s %s: %s\n", ev.Seq, ev.When.Format("15:04:05.000"), ev.Kind, ev.Subject, ev.Detail)
		}
	}
}

func header() {
	if *agg {
		fmt.Printf("%7s %9s %9s %9s %7s %6s %6s %6s %8s %5s %8s %8s %9s %6s %8s\n",
			"devs", "play-B/s", "rec-B/s", "sil-f/s", "under", "parks", "queued", "errs", "reqs/s", "batch", "stg-B/s", "upd/s", "lag-p99", "bsubs", "bmsg/s")
		return
	}
	fmt.Printf("%-10s %9s %9s %9s %7s %6s %6s %5s %6s %9s %9s\n",
		"device", "play-B/s", "rec-B/s", "sil-f/s", "under", "parks", "queued", "batch", "errs", "play-p99", "lock-p99")
}

// deviceRate is one device's interval delta, used for -top ranking.
type deviceRate struct {
	cur      aserver.DeviceStats
	playRate float64
	recRate  float64
	silRate  float64
	under    uint64
	parks    uint64
	batch    float64 // mean dispatch batch size over the interval
}

// rates computes per-device interval deltas, sorted busiest-first when
// ranking is requested.
func rates(prev, cur aserver.Snapshot, secs float64, rank bool) []deviceRate {
	prevDev := make(map[int]aserver.DeviceStats, len(prev.Devices))
	for _, d := range prev.Devices {
		prevDev[d.Index] = d
	}
	rows := make([]deviceRate, 0, len(cur.Devices))
	for _, d := range cur.Devices {
		p := prevDev[d.Index]
		rows = append(rows, deviceRate{
			cur:      d,
			playRate: float64(d.PlayBytes-p.PlayBytes) / secs,
			recRate:  float64(d.RecBytes-p.RecBytes) / secs,
			silRate:  float64(d.PlaySilenceFilled-p.PlaySilenceFilled) / secs,
			under:    d.Underruns - p.Underruns,
			parks:    d.ParksStarted - p.ParksStarted,
			batch:    histDeltaMean(p.DispatchBatch, d.DispatchBatch),
		})
	}
	if rank {
		sort.SliceStable(rows, func(i, j int) bool {
			return rows[i].playRate+rows[i].recRate > rows[j].playRate+rows[j].recRate
		})
	}
	return rows
}

// printDelta renders one interval: per-device rates from the counter
// deltas, with the server-wide columns folded into the first row. With
// -top N only the N busiest devices print, with a trailer counting the
// rest.
func printDelta(prev, cur aserver.Snapshot, dt time.Duration) {
	secs := dt.Seconds()
	if secs <= 0 {
		secs = 1
	}
	rows := rates(prev, cur, secs, *top > 0)
	hidden := 0
	if *top > 0 && len(rows) > *top {
		hidden = len(rows) - *top
		rows = rows[:*top]
	}
	for i, r := range rows {
		errs := ""
		if i == 0 {
			errs = fmt.Sprintf("%d", cur.ClientErrors-prev.ClientErrors)
		}
		fmt.Printf("%-10s %9.0f %9.0f %9.0f %7d %6d %6d %5.1f %6s %9s %9s\n",
			r.cur.Name, r.playRate, r.recRate, r.silRate,
			r.under, r.parks, r.cur.ParkedNow, r.batch, errs,
			ns(cur.DispatchPlayNs.Quantile(0.99)),
			ns(r.cur.LockWaitNs.Quantile(0.99)))
	}
	if hidden > 0 {
		fmt.Printf("... (+%d more devices; -top %d)\n", hidden, *top)
	}
}

// printAggregate renders one interval as a single server-wide line: the
// device columns summed, plus request and engine-update rates and the
// engine timers' tick-lag p99.
func printAggregate(prev, cur aserver.Snapshot, dt time.Duration) {
	secs := dt.Seconds()
	if secs <= 0 {
		secs = 1
	}
	var play, rec, sil float64
	var under, parks uint64
	var queued int64
	for _, r := range rates(prev, cur, secs, false) {
		play += r.playRate
		rec += r.recRate
		sil += r.silRate
		under += r.under
		parks += r.parks
		queued += r.cur.ParkedNow
	}
	var bsubs int64
	var curMsgs, prevMsgs uint64
	for _, d := range cur.Devices {
		bsubs += d.BcastSubs
		curMsgs += d.BcastMsgs
	}
	for _, d := range prev.Devices {
		prevMsgs += d.BcastMsgs
	}
	fmt.Printf("%7d %9.0f %9.0f %9.0f %7d %6d %6d %6d %8.0f %5.1f %8.0f %8.0f %9s %6d %8.0f\n",
		len(cur.Devices), play, rec, sil, under, parks, queued,
		cur.ClientErrors-prev.ClientErrors,
		float64(cur.Requests-prev.Requests)/secs,
		histDeltaMean(prev.DispatchBatch, cur.DispatchBatch),
		float64(cur.StagedBytes-prev.StagedBytes)/secs,
		float64(cur.SchedEngineRuns-prev.SchedEngineRuns)/secs,
		ns(cur.SchedTickLagNs.Quantile(0.99)),
		bsubs, float64(curMsgs-prevMsgs)/secs)
}

// histDeltaMean is the mean observed value across one interval: the
// delta of a histogram's sum over the delta of its count.
func histDeltaMean(prev, cur metrics.HistogramSnapshot) float64 {
	dc := cur.Count - prev.Count
	if dc == 0 {
		return 0
	}
	return float64(cur.Sum-prev.Sum) / float64(dc)
}

// printAbsolute renders one snapshot's cumulative counters. -top bounds
// the device table here too.
func printAbsolute(s aserver.Snapshot) {
	fmt.Printf("requests %d  connects %d  disconnects %d  active %d  errors %d\n",
		s.Requests, s.Connects, s.Disconnects, s.ActiveClients, s.ClientErrors)
	fmt.Printf("evictions %d  sheds %d  drains %d  client-closes %d  queued-bytes %d  frame-bytes %d\n",
		s.Evictions, s.Sheds, s.Drains, s.ClientCloses, s.QueuedBytes, s.FrameBytesInFlight)
	fmt.Printf("dispatch p99: play %s  record %s  gettime %s  control %s  writev mean %.1f  egress-fallbacks %d\n",
		ns(s.DispatchPlayNs.Quantile(0.99)), ns(s.DispatchRecordNs.Quantile(0.99)),
		ns(s.DispatchGetTimeNs.Quantile(0.99)), ns(s.DispatchControlNs.Quantile(0.99)),
		s.WritevBatch.Mean(), s.EgressFallbacks)
	fmt.Printf("batch: dispatch mean %.1f p99 %d  staged %d bytes / %d flushes\n",
		s.DispatchBatch.Mean(), s.DispatchBatch.Quantile(0.99),
		s.StagedBytes, s.StagedFlushes)
	fmt.Printf("sched: %d engine-runs  tick-lag p50 %s p99 %s max %s\n",
		s.SchedEngineRuns,
		ns(s.SchedTickLagNs.Quantile(0.50)), ns(s.SchedTickLagNs.Quantile(0.99)),
		ns(s.SchedTickLagNs.Max()))
	var bsubs int64
	var bchunks, bencodes, bmsgs, bbytes, bdrops uint64
	for _, d := range s.Devices {
		bsubs += d.BcastSubs
		bchunks += d.BcastChunks
		bencodes += d.BcastEncodes
		bmsgs += d.BcastMsgs
		bbytes += d.BcastBytes
		bdrops += d.BcastDrops
	}
	fmt.Printf("bcast: subs %d  chunks %d  encodes %d  msgs %d  bytes %d  drops %d\n",
		bsubs, bchunks, bencodes, bmsgs, bbytes, bdrops)
	for _, d := range s.Devices {
		ls := d.Lineserver
		if ls == nil {
			continue
		}
		fmt.Printf("als %-6s %s  req %d  rep %d (ok %d stale %d dup %d garbage %d)  timeouts %d  slips %d\n",
			d.Name, ls.State, ls.Requests, ls.Replies,
			ls.Accepted, ls.Stale, ls.Duplicate, ls.Garbage, ls.Timeouts, ls.Slips)
		fmt.Printf("als %-6s resyncs: started %d  completed %d  abandoned %d  attempts %d  rec-silence %dB  play-lost %dB\n",
			d.Name, ls.ResyncsStarted, ls.ResyncsCompleted, ls.ResyncsAbandoned,
			ls.ResyncAttempts, ls.RecSilenceBytes, ls.PlayLostBytes)
	}
	if *agg {
		return
	}
	devs := s.Devices
	hidden := 0
	if *top > 0 && len(devs) > *top {
		ranked := append([]aserver.DeviceStats(nil), devs...)
		sort.SliceStable(ranked, func(i, j int) bool {
			return ranked[i].PlayBytes+ranked[i].RecBytes > ranked[j].PlayBytes+ranked[j].RecBytes
		})
		hidden = len(ranked) - *top
		devs = ranked[:*top]
	}
	fmt.Printf("%-10s %12s %12s %10s %10s %7s %6s %6s %5s %9s\n",
		"device", "play-bytes", "rec-bytes", "sil-fill", "preempt", "under", "parks", "queued", "batch", "lock-p99")
	for _, d := range devs {
		fmt.Printf("%-10s %12d %12d %10d %10d %7d %6d %6d %5.1f %9s\n",
			d.Name, d.PlayBytes, d.RecBytes, d.PlaySilenceFilled, d.FramesPreempted,
			d.Underruns, d.ParksStarted, d.ParkedNow, d.DispatchBatch.Mean(),
			ns(d.LockWaitNs.Quantile(0.99)))
	}
	if hidden > 0 {
		fmt.Printf("... (+%d more devices; -top %d)\n", hidden, *top)
	}
}

// warn reports a broken conservation law.
func warn(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "astat: WARNING: %v\n", err)
	}
}

func routerHeader() {
	fmt.Printf("%8s %8s %8s %10s %10s %9s %6s %s\n",
		"sessions", "redir/s", "routes/s", "c2b-B/s", "b2c-B/s", "failovers", "errs", "backends")
}

// printRouterDelta renders one interval of router counters plus the
// backend health roster.
func printRouterDelta(prev, cur aserver.RouterSnapshot, dt time.Duration) {
	secs := dt.Seconds()
	if secs <= 0 {
		secs = 1
	}
	roster := ""
	for i, b := range cur.Backends {
		if i > 0 {
			roster += " "
		}
		marker := ""
		if i < len(prev.Backends) && b.ProbeFailures > prev.Backends[i].ProbeFailures {
			marker = "!"
		}
		roster += fmt.Sprintf("%s=%s%s(%d)", b.Name, b.State, marker, b.Sessions)
	}
	fmt.Printf("%8d %8.1f %8.1f %10.0f %10.0f %9d %6d %s\n",
		cur.SessionsActive,
		float64(cur.Redirects-prev.Redirects)/secs,
		float64(cur.Routes-prev.Routes)/secs,
		float64(cur.ProxiedBytesC2B-prev.ProxiedBytesC2B)/secs,
		float64(cur.ProxiedBytesB2C-prev.ProxiedBytesB2C)/secs,
		cur.FailoversStarted-prev.FailoversStarted,
		cur.RouteErrors-prev.RouteErrors,
		roster)
	warn(cur.Check(false))
}

// printRouterAbsolute renders one cumulative router snapshot.
func printRouterAbsolute(s aserver.RouterSnapshot) {
	fmt.Printf("accepted %d  redirects %d  routes %d  active %d  route-errors %d  proxied c2b %dB b2c %dB\n",
		s.Accepted, s.Redirects, s.Routes, s.SessionsActive, s.RouteErrors, s.ProxiedBytesC2B, s.ProxiedBytesB2C)
	fmt.Printf("closed: client %d  backend %d  failovers %d\n",
		s.ClosedClient, s.ClosedBackend, s.FailoversStarted)
	fmt.Printf("%-24s %-8s %8s %8s %8s %6s %6s %6s %6s\n",
		"backend", "state", "sessions", "probes", "fails", "dial", "→heal", "→resync", "→down")
	for _, b := range s.Backends {
		fmt.Printf("%-24s %-8s %8d %8d %8d %6d %6d %6d %6d\n",
			b.Name, b.State, b.Sessions, b.Probes, b.ProbeFailures,
			b.DialErrors, b.ToHealthy, b.ResyncsStarted, b.ToDown)
	}
}

// ns renders a nanosecond bucket bound compactly.
func ns(v uint64) string {
	d := time.Duration(v)
	switch {
	case d == 0:
		return "-"
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	}
}

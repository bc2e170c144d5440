// apbx is a PBX/IVR workload generator: the thousand-line telephone
// scenario the sharded update plane exists for. It hosts an in-process
// AudioFile server whose device complement is N simulated telephone
// lines, then plays both sides of every call:
//
//   - The exchange side drives each line's phonesim directly, as the
//     outside world would: ring cadence pulses until the line is
//     answered, Touch-Tone digits for the IVR menu, and a hangup wait.
//   - The agent side speaks the AudioFile protocol over in-process
//     connections: it selects ring/DTMF/hook events, answers with
//     HookSwitch, navigates the menu from decoded DTMF events, and
//     hangs up. Lines within the protocol's 255-device setup horizon
//     also run media: a greeting played through an AC and an
//     answering-machine record that parks server-side until the audio
//     exists.
//
// Every line is a root device with its own engine, so lines = engines:
// apbx is a direct load test of the update plane — one runtime timer per
// engine — (goroutine inventory, tick lag, park wakes), reported from the
// server's metrics snapshot at the end of the run.
//
//	apbx [-lines N] [-agents M] [-calls C] [-digits D] [-ring-every T]
//	     [-media-every K] [-v]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"audiofile/af"
	"audiofile/aserver"
	"audiofile/cmd/internal/cmdutil"
)

// mediaHorizon is the setup reply's uint8 device-count ceiling: lines at
// or past it are reachable by index (events, hookswitch) but cannot
// carry an AC, so they run the no-media call flow.
const mediaHorizon = 255

func main() {
	lines := flag.Int("lines", 1000, "simulated telephone lines (one root device + engine each)")
	agents := flag.Int("agents", 8, "agent connections sharing the lines")
	calls := flag.Int("calls", 1, "calls to complete per line")
	digits := flag.Int("digits", 3, "IVR menu digits the caller punches per call")
	ringEvery := flag.Duration("ring-every", 150*time.Millisecond, "ring cadence pulse period (accelerated; US cadence is 6s)")
	mediaEvery := flag.Int("media-every", 16, "run the media leg (greeting + answering-machine record) on every Nth answered line; 0 disables")
	verbose := flag.Bool("v", false, "log call progress")
	flag.Parse()
	if *lines < 1 || *agents < 1 || *calls < 1 {
		cmdutil.Die("apbx: -lines, -agents, and -calls must be positive")
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "apbx: "+format+"\n", args...)
		}
	}

	specs := make([]aserver.DeviceSpec, *lines)
	for i := range specs {
		specs[i] = aserver.DeviceSpec{
			Kind: "phone",
			Name: fmt.Sprintf("line%d", i),
			// A PBX line needs seconds of buffer for nothing; keep the
			// thousand-line fleet's memory honest.
			BufSeconds: 1,
		}
	}
	baseline := runtime.NumGoroutine()
	srv, err := aserver.New(aserver.Options{
		Vendor:  "audiofile-go apbx",
		Devices: specs,
		Logf:    logf,
	})
	if err != nil {
		cmdutil.Die("apbx: %v", err)
	}
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "apbx: %d lines up, +%d goroutines over baseline\n",
		*lines, runtime.NumGoroutine()-baseline)

	pbx := &pbx{
		srv: srv, logf: logf,
		lines: *lines, calls: *calls, digits: *digits,
		ringEvery: *ringEvery, mediaEvery: *mediaEvery,
	}
	start := time.Now()
	if err := pbx.run(*agents); err != nil {
		cmdutil.Die("apbx: %v", err)
	}
	elapsed := time.Since(start)

	snap := srv.Snapshot()
	fmt.Printf("apbx: %d calls on %d lines in %.2fs (%d media legs, %d digits decoded)\n",
		pbx.completed.Load(), *lines, elapsed.Seconds(),
		pbx.mediaLegs.Load(), pbx.digitsSeen.Load())
	fmt.Printf("  update plane: %d engine runs\n", snap.SchedEngineRuns)
	fmt.Printf("  tick lag: p50 %v  p99 %v  max %v (n=%d)\n",
		time.Duration(snap.SchedTickLagNs.Quantile(0.50)),
		time.Duration(snap.SchedTickLagNs.Quantile(0.99)),
		time.Duration(snap.SchedTickLagNs.Max()), snap.SchedTickLagNs.Count)
	var parks, completedParks uint64
	for _, d := range snap.Devices {
		parks += d.ParksStarted
		completedParks += d.ParksCompleted
	}
	fmt.Printf("  parks: %d started, %d completed\n", parks, completedParks)
}

// pbx owns the run: shared config plus the counters both sides bump.
type pbx struct {
	srv        *aserver.Server
	logf       func(string, ...any)
	lines      int
	calls      int
	digits     int
	ringEvery  time.Duration
	mediaEvery int

	completed  atomic.Int64 // calls hung up by an agent
	mediaLegs  atomic.Int64 // greeting+record legs run
	digitsSeen atomic.Int64 // DTMF events agents decoded
}

// run drives every line through its calls: agent goroutines service
// events while exchange goroutines originate calls. Returns when every
// call has completed.
func (p *pbx) run(agents int) error {
	var wg sync.WaitGroup
	errCh := make(chan error, agents+1)
	for a := 0; a < agents; a++ {
		conn, err := af.NewConn(p.srv.DialPipe())
		if err != nil {
			return err
		}
		conn.SetIOErrorHandler(func(*af.Conn, error) {})
		defer conn.Close()
		// Line l belongs to agent l%agents. Event selection is by device
		// index and is not bounded by the advertised device table, so
		// agents watch lines past the 255-device setup horizon too.
		for l := a; l < p.lines; l += agents {
			if err := conn.SelectEvents(l,
				af.MaskPhoneRing|af.MaskPhoneDTMF|af.MaskPhoneHookSwitch); err != nil {
				return err
			}
		}
		wg.Add(1)
		go func(a int, conn *af.Conn) {
			defer wg.Done()
			if err := p.agent(a, agents, conn); err != nil {
				errCh <- fmt.Errorf("agent %d: %w", a, err)
			}
		}(a, conn)
	}

	// The exchange: one goroutine per batch of lines originates ring
	// cadence and punches digits once answered.
	const exchangeWorkers = 32
	var exWG sync.WaitGroup
	for w := 0; w < exchangeWorkers; w++ {
		exWG.Add(1)
		go func(w int) {
			defer exWG.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for l := w; l < p.lines; l += exchangeWorkers {
				if err := p.exchangeLine(l, rng); err != nil {
					errCh <- fmt.Errorf("exchange line %d: %w", l, err)
					return
				}
			}
		}(w)
	}
	exWG.Wait()

	// All calls originated and hung up; agents exit once each has seen
	// its share of completions. Give them a moment to drain trailing
	// events, then close the server to unblock any agent still reading.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		return fmt.Errorf("agents did not finish: %d/%d calls completed",
			p.completed.Load(), int64(p.lines*p.calls))
	}
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// exchangeLine originates p.calls calls on line l: ring until answered,
// punch the menu digits, wait for the agent to hang up.
func (p *pbx) exchangeLine(l int, rng *rand.Rand) error {
	line := p.srv.PhoneLine(l)
	if line == nil {
		return fmt.Errorf("no phone line behind device %d", l)
	}
	for call := 0; call < p.calls; call++ {
		// Ring cadence: a pulse per period until the agent answers.
		deadline := time.Now().Add(30 * time.Second)
		for !line.OffHook() {
			if time.Now().After(deadline) {
				return fmt.Errorf("call %d never answered", call)
			}
			line.RingPulse()
			time.Sleep(p.ringEvery)
		}
		// Answered: the caller punches the IVR menu. RemoteDigits
		// synthesizes real Touch-Tone audio; the line's decoder turns it
		// back into DTMF events for the agent.
		menu := make([]byte, p.digits)
		for i := range menu {
			menu[i] = byte('0' + rng.Intn(10))
		}
		line.RemoteDigits(string(menu))
		// Wait for the agent to hang up before the next call.
		for line.OffHook() {
			if time.Now().After(deadline) {
				return fmt.Errorf("call %d never hung up", call)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// agent services events for its lines: answer on ring, count menu
// digits, run the media leg on eligible lines, hang up when the menu is
// done.
func (p *pbx) agent(a, agents int, conn *af.Conn) error {
	type callState struct {
		inCall bool
		digits int
	}
	states := make(map[int]*callState)
	remaining := 0
	for l := a; l < p.lines; l += agents {
		states[l] = &callState{}
		remaining += p.calls
	}
	var mediaWG sync.WaitGroup
	defer mediaWG.Wait()
	for remaining > 0 {
		ev, err := conn.NextEvent()
		if err != nil {
			return err
		}
		st := states[ev.Device]
		if st == nil {
			continue
		}
		switch ev.Code {
		case af.EventPhoneRing:
			if ev.Detail == 0 || st.inCall {
				break
			}
			st.inCall = true
			st.digits = 0
			// HookSwitch is asynchronous; flush so the answer is not
			// stuck in the write buffer while we wait for the next event.
			if err := conn.HookSwitch(ev.Device, true); err != nil {
				return err
			}
			if err := conn.Flush(); err != nil {
				return err
			}
			if p.mediaEvery > 0 && ev.Device < mediaHorizon && ev.Device%p.mediaEvery == 0 {
				mediaWG.Add(1)
				go func(dev int) {
					defer mediaWG.Done()
					if err := p.mediaLeg(dev); err != nil {
						p.logf("media leg line %d: %v", dev, err)
					} else {
						p.mediaLegs.Add(1)
					}
				}(ev.Device)
			}
		case af.EventPhoneDTMF:
			if !st.inCall {
				break
			}
			p.digitsSeen.Add(1)
			st.digits++
			if st.digits >= p.digits {
				if err := conn.HookSwitch(ev.Device, false); err != nil {
					return err
				}
				if err := conn.Flush(); err != nil {
					return err
				}
				st.inCall = false
				remaining--
				p.completed.Add(1)
			}
		}
	}
	return nil
}

// mediaLeg is the answering-machine path on its own connection (a
// parked blocking record must not stall the agent's event stream, which
// shares per-connection FIFO order with every other line it watches):
// play a greeting, then block recording caller audio that does not
// exist yet — the park the scheduler has to wake precisely.
func (p *pbx) mediaLeg(dev int) error {
	mc, err := af.NewConn(p.srv.DialPipe())
	if err != nil {
		return err
	}
	defer mc.Close()
	mc.SetIOErrorHandler(func(*af.Conn, error) {})
	ac, err := mc.CreateAC(dev, 0, af.ACAttributes{})
	if err != nil {
		return err
	}
	now, err := ac.GetTime()
	if err != nil {
		return err
	}
	// Greeting: 100 ms of µ-law "speech" into the near future.
	greeting := make([]byte, 800)
	for i := range greeting {
		greeting[i] = byte(0x90 + (i>>3)%32)
	}
	if _, err := ac.PlaySamples(now.Add(400), greeting); err != nil {
		return err
	}
	// Answering machine: record 100 ms starting now+50ms. The tail does
	// not exist yet, so the request parks server-side and resumes off
	// the engine's timer as the line clock advances.
	buf := make([]byte, 800)
	if _, _, err := ac.RecordSamples(now.Add(400), buf, true); err != nil {
		return err
	}
	return ac.Free()
}

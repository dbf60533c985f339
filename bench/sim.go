package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"itsbed"
	"itsbed/internal/experiments"
)

// simWorkload is a closed loop with one caller over calls into the
// simulator. Call i > 0 derives from the seed alone; call 0 is the same
// for every seed, so that set-up starts cold on the same op.
type simWorkload struct {
	warmup     int // calls before timing, call 0 included; they are set-up
	opsPerCall int
	callSpan   string
	call       func(i int) (callOut, error)
}

// callOut is one call's simulated output as the benchmark checks it.
type callOut struct {
	canon      []byte   // the simulated output, hashed into the digest
	violations []string // invariants the output breaks
	work       workCounts
}

// workCounts are counts the program reports about the work of a call.
type workCounts struct {
	framesSent, framesDelivered, framesLost float64
	geonetSent, denTx                       float64
	attempts, accepted                      float64
}

func (w *workCounts) add(o workCounts) {
	w.framesSent += o.framesSent
	w.framesDelivered += o.framesDelivered
	w.framesLost += o.framesLost
	w.geonetSent += o.geonetSent
	w.denTx += o.denTx
	w.attempts += o.attempts
	w.accepted += o.accepted
}

func (w workCounts) metrics(ops int) map[string]metric {
	n := float64(ops)
	pdr := 0.0
	if d := w.framesDelivered + w.framesLost; d > 0 {
		pdr = w.framesDelivered / d
	}
	accept := 0.0
	if w.attempts > 0 {
		accept = w.accepted / w.attempts
	}
	return map[string]metric{
		"radio.frames_sent_per_op":      {Value: w.framesSent / n, Unit: "count", Ops: ops},
		"radio.frames_delivered_per_op": {Value: w.framesDelivered / n, Unit: "count", Ops: ops},
		"radio.pdr":                     {Value: pdr, Unit: "ratio"},
		"geonet.packets_sent_per_op":    {Value: w.geonetSent / n, Unit: "count", Ops: ops},
		"den.transmissions_per_op":      {Value: w.denTx / n, Unit: "count", Ops: ops},
		"campaign.accept_ratio":         {Value: accept, Unit: "ratio"},
	}
}

// tableIIWorkload is one Table II attempt per call: the paper's 2→5
// chain over ITS-G5, with the ground-truth line follower (table2) or
// the Canny/Hough image pipeline (vision, the CLI default).
func tableIIWorkload(seed int64, vision bool) simWorkload {
	w := simWorkload{warmup: 20, opsPerCall: 1, callSpan: "itsbed.TableII"}
	if vision {
		w.warmup = 1
	}
	w.call = func(i int) (callOut, error) {
		base := seed + int64(i)
		if i == 0 {
			base = 0
		}
		attempts := 0
		res, err := itsbed.TableII(itsbed.ScenarioOptions{
			Runs: 1, Workers: 1, BaseSeed: base, UseVision: vision,
			Progress: func(done, _ int) { attempts = done },
		})
		if err != nil {
			return callOut{}, err
		}
		return tableIIOut(res, attempts), nil
	}
	return w
}

func tableIIOut(res experiments.TableIIResult, attempts int) callOut {
	var out callOut
	for _, r := range res.Rows {
		out.canon = fmt.Appendf(out.canon, "%d %d %d %d %d\n",
			r.Run, r.DetectionToSend, r.SendToReceive, r.ReceiveToAction, r.Total)
		// One interval may be negative: steps 3 and 4 are stamped by
		// different stations' NTP-disciplined clocks.
		if r.Total <= 0 || r.Total != r.DetectionToSend+r.SendToReceive+r.ReceiveToAction {
			out.violations = append(out.violations, fmt.Sprintf("2→5 chain incomplete: %+v", r))
		}
	}
	if len(res.Rows) != 1 {
		out.violations = append(out.violations, fmt.Sprintf("%d Table II rows, want 1", len(res.Rows)))
	}
	stations := map[string]bool{}
	w := workCounts{attempts: float64(attempts), accepted: float64(len(res.Rows))}
	for _, c := range res.Metrics.Counters {
		v := float64(c.Value)
		switch c.Name {
		case "radio_frames_sent_total":
			w.framesSent += v
		case "radio_frames_delivered_total":
			w.framesDelivered += v
		case "radio_frames_lost_total":
			w.framesLost += v
		case "geonet_sent_total":
			w.geonetSent += v
		case "den_transmissions_total":
			w.denTx += v
		case "radio_tx_frames_total":
			for _, l := range c.Labels {
				if l.Key == "station" {
					stations[l.Value] = true
				}
			}
		}
	}
	out.violations = append(out.violations, radioViolations(w, len(stations))...)
	out.work = w
	return out
}

// radioViolations checks the medium's per-receiver accounting: every
// frame sent reaches each of the other stations at most once, as a
// delivery or a loss.
func radioViolations(w workCounts, stations int) []string {
	if stations < 2 {
		return []string{fmt.Sprintf("radio has %d stations", stations)}
	}
	if w.framesDelivered+w.framesLost > w.framesSent*float64(stations-1) {
		return []string{fmt.Sprintf("radio delivered %v + lost %v > sent %v × %d receivers",
			w.framesDelivered, w.framesLost, w.framesSent, stations-1)}
	}
	return nil
}

const (
	cityStations = 1000
	cityRSUs     = 4
)

// cityWorkload simulates the SCALE-1 city at 1000 vehicles and 4 RSUs,
// DCC and the spatial grid on. Call 0 only assembles the city (1 ms of
// simulated time); every later call simulates 2 s, i.e. 2 ops.
func cityWorkload(seed int64) simWorkload {
	return simWorkload{warmup: 1, opsPerCall: 2, callSpan: "experiments.CitySweep",
		call: func(i int) (callOut, error) {
			opt := experiments.CityOptions{
				Stations: []int{cityStations}, RSUs: cityRSUs, Workers: 1,
				Duration: 2 * time.Second, BaseSeed: seed + 13000 + int64(i-1),
			}
			if i == 0 {
				opt.Duration, opt.BaseSeed = time.Millisecond, 13000
			}
			rows, err := experiments.CitySweep(opt)
			if err != nil {
				return callOut{}, err
			}
			var out callOut
			for _, r := range rows {
				row, err := json.Marshal(r)
				if err != nil {
					return callOut{}, err
				}
				out.canon = append(append(out.canon, row...), '\n')
				w := workCounts{framesSent: float64(r.FramesSent), framesDelivered: float64(r.FramesDelivered),
					framesLost: float64(r.FramesLost), attempts: 1, accepted: 1}
				out.work.add(w)
				out.violations = append(out.violations, radioViolations(w, cityStations+cityRSUs)...)
				if r.Stations != cityStations || r.PDR < 0 || r.PDR > 1 || (i > 0 && r.FramesSent == 0) {
					out.violations = append(out.violations, fmt.Sprintf("implausible city row %+v", r))
				}
			}
			if len(rows) != 1 {
				out.violations = append(out.violations, fmt.Sprintf("%d city rows, want 1", len(rows)))
			}
			return out, nil
		}}
}

// run executes set-up (the warm-up calls), then timed calls for
// env.seconds (or until env.fixedOps ops), and finally replays call 0
// to check that no state leaks from one call into the next.
func (w simWorkload) run(env *childEnv) (childReport, error) {
	var (
		rep   childReport
		dig   = newOutputDigest(env.workload)
		first []byte
		work  workCounts
		lats  []float64
	)
	do := func(i, parent int, timed bool) time.Duration {
		t0 := time.Now()
		out, err := w.call(i)
		t1 := time.Now()
		rep.Attempted++
		switch {
		case err != nil:
			rep.Failed++
			env.fail("call %d: %v", i, err)
			out.canon = []byte("error: " + err.Error() + "\n")
		case len(out.violations) > 0:
			rep.Failed++
			rep.Violations += len(out.violations)
			env.fail("call %d: %v", i, out.violations)
		}
		dig.add(out.canon)
		if i == 0 {
			first = out.canon
		}
		if timed {
			work.add(out.work)
			lats = append(lats, ms(t1.Sub(t0))/float64(w.opsPerCall))
		}
		op := env.spans.add("op", parent, 0, t0, time.Now())
		env.spans.add(w.callSpan, op, 0, t0, t1)
		return t1.Sub(t0)
	}

	setup := env.spans.open("setup", 0, env.start)
	for i := 0; i < w.warmup; i++ {
		do(i, setup, false)
	}
	done := time.Now()
	rep.SetupDone = done.UnixNano()
	env.spans.close(setup, done)
	if env.setupOnly {
		return rep, nil
	}

	if err := env.prof.start(); err != nil {
		return rep, err
	}
	before := readHost()
	timed := env.spans.open("timed", 0, before.wall)
	deadline := time.Duration(env.seconds) * time.Second
	var last time.Duration
	for i := w.warmup; ; i++ {
		if env.fixedOps > 0 {
			if rep.Ops >= env.fixedOps {
				break
			}
		} else if rep.Ops > 0 && time.Since(before.wall)+last/2 >= deadline {
			// Start a call only if at least half of it fits, so a run
			// of slow calls ends as close to the deadline as it can.
			break
		}
		last = do(i, timed, true)
		rep.Ops += w.opsPerCall
	}
	after := readHost()
	env.spans.close(timed, after.wall)
	layerMetrics, err := env.prof.stop(rep.Ops)
	if err != nil {
		return rep, err
	}

	again, err := w.call(0)
	if err == nil && !bytes.Equal(again.canon, first) {
		err = errors.New("different output")
	}
	if err != nil {
		rep.Violations++
		env.fail("replaying call 0: %v", err)
	}
	rep.Digests = dig.sums
	rep.Rerun = rep.Ops
	rep.Metrics = timedMetrics(after.since(before), rep.Ops, lats)
	for k, v := range work.metrics(rep.Ops) {
		rep.Metrics[k] = v
	}
	for k, v := range layerMetrics {
		rep.Metrics[k] = v
	}
	return rep, nil
}

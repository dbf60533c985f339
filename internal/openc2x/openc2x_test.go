package openc2x

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"itsbed/internal/clock"
	"itsbed/internal/flight"
	"itsbed/internal/geo"
	"itsbed/internal/its/btp"
	"itsbed/internal/its/geonet"
	"itsbed/internal/its/messages"
	"itsbed/internal/metrics"
	"itsbed/internal/radio"
	"itsbed/internal/sim"
	"itsbed/internal/stack"
	"itsbed/internal/trace"
	"itsbed/internal/units"
)

// simPair builds RSU and OBU SimNodes on one kernel/medium; the OBU
// reports into obuSink.
func simPair(t *testing.T, obuSink trace.Sink) (*sim.Kernel, *SimNode, *SimNode) {
	t.Helper()
	k := sim.NewKernel(21)
	frame, err := geo.NewFrame(geo.CISTERLab)
	if err != nil {
		t.Fatal(err)
	}
	medium := radio.NewMedium(k, radio.MediumConfig{})
	rsu, err := stack.New(k, medium, stack.Config{
		Name: "rsu", Role: stack.RoleRSU, StationID: 1001,
		StationType: units.StationTypeRoadSideUnit, Frame: frame,
		Mobility: stack.StaticMobility{Geo: geo.CISTERLab},
		NTP:      clock.PerfectNTP(), DisableCAMTriggers: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	obu, err := stack.New(k, medium, stack.Config{
		Name: "obu", Role: stack.RoleOBU, StationID: 2001,
		StationType: units.StationTypePassengerCar, Frame: frame,
		Mobility: stack.StaticMobility{Point: geo.Point{X: 3}, Geo: geo.CISTERLab},
		NTP:      clock.PerfectNTP(),
		Sink:     obuSink,
	})
	if err != nil {
		t.Fatal(err)
	}
	return k, NewSimNode(k, rsu, Latencies{}), NewSimNode(k, obu, Latencies{})
}

func collisionReq() TriggerRequest {
	return TriggerRequest{
		CauseCode: 97, SubCauseCode: 2,
		Latitude: geo.CISTERLab.Lat, Longitude: geo.CISTERLab.Lon,
		Quality: 3,
	}
}

func TestSimNodeTriggerToPoll(t *testing.T) {
	k, rsu, obu := simPair(t, trace.Sink{})
	var triggered bool
	rsu.TriggerDENM(collisionReq(), func(id messages.ActionID, err error) {
		if err != nil {
			t.Errorf("trigger: %v", err)
		}
		if id.OriginatingStationID != 1001 {
			t.Errorf("actionID %v", id)
		}
		triggered = true
	})
	k.Run(100 * time.Millisecond)
	if !triggered {
		t.Fatal("trigger callback never fired")
	}
	if pending(obu) != 1 {
		t.Fatalf("OBU mailbox depth %d", pending(obu))
	}
	var batch []ReceivedDENM
	obu.RequestDENM(func(b []ReceivedDENM) { batch = b })
	k.Run(200 * time.Millisecond)
	if len(batch) != 1 {
		t.Fatalf("poll returned %d DENMs", len(batch))
	}
	d := batch[0].DENM
	if d.Situation.EventType.CauseCode != messages.CauseCollisionRisk {
		t.Fatal("wrong cause")
	}
	// Mailbox drained.
	if pending(obu) != 0 {
		t.Fatal("mailbox not drained")
	}
	if rsu.TriggerCount != 1 || obu.PollCount != 1 {
		t.Fatalf("counters trigger=%d poll=%d", rsu.TriggerCount, obu.PollCount)
	}
}

func TestSimNodeEmptyPoll(t *testing.T) {
	k, _, obu := simPair(t, trace.Sink{})
	polled := false
	obu.RequestDENM(func(b []ReceivedDENM) {
		polled = true
		if len(b) != 0 {
			t.Errorf("unexpected DENMs: %d", len(b))
		}
	})
	k.Run(100 * time.Millisecond)
	if !polled {
		t.Fatal("poll callback never fired (the HTTP 200 of the paper)")
	}
}

func TestSimNodePollLatencyModel(t *testing.T) {
	k, _, obu := simPair(t, trace.Sink{})
	start := k.Now()
	var at time.Duration
	obu.RequestDENM(func([]ReceivedDENM) { at = k.Now() })
	k.Run(time.Second)
	rtt := at - start
	lat := DefaultHTTPLatency()
	if rtt < 2*(lat.Mean-lat.Jitter) || rtt > 2*(lat.Mean+lat.Jitter) {
		t.Fatalf("poll round trip %v outside the model bounds", rtt)
	}
}

func TestSummarize(t *testing.T) {
	d := messages.NewDENM(1001)
	d.Management = messages.ManagementContainer{
		ActionID:      messages.ActionID{OriginatingStationID: 1001, SequenceNumber: 3},
		DetectionTime: 12345,
		EventPosition: messages.ReferencePosition{
			Latitude:      units.LatitudeFromDegrees(41.178),
			Longitude:     units.LongitudeFromDegrees(-8.608),
			AltitudeValue: messages.AltitudeUnavailable,
		},
	}
	d.Situation = &messages.SituationContainer{
		EventType: messages.EventType{CauseCode: 97, SubCauseCode: 2},
	}
	s := Summarize(ReceivedDENM{DENM: d, ReceivedAt: 1500 * time.Millisecond})
	if s.OriginatingStationID != 1001 || s.SequenceNumber != 3 {
		t.Fatalf("summary %+v", s)
	}
	if s.CauseCode != 97 || s.CauseDescription != "collisionRisk" {
		t.Fatalf("cause summary %+v", s)
	}
	if s.ReceivedAtMS != 1500 {
		t.Fatalf("receivedAt %d", s.ReceivedAtMS)
	}
	if s.Latitude < 41.17 || s.Latitude > 41.19 {
		t.Fatalf("latitude %v", s.Latitude)
	}
}

// fleetSizes are the hosted-station counts every daemon test runs
// over: the paper's one station per unit, and a small fleet.
var fleetSizes = []int{1, 3}

// forFleets runs test once per fleet size.
func forFleets(t *testing.T, test func(t *testing.T, n int)) {
	for _, n := range fleetSizes {
		t.Run(fmt.Sprintf("stations=%d", n), func(t *testing.T) { test(t, n) })
	}
}

// udpPair boots two daemons linked over loopback UDP, as rsud and obud
// run: the RSU daemon hosts stations 1001.. and the OBU daemon
// 2001.., n of each. The legacy routes serve 1001 and 2001.
func udpPair(t *testing.T, n int) (rsu, obu *MuxServer) {
	t.Helper()
	rsuLink, obuLink := newUDPLink(t), newUDPLink(t)
	if err := rsuLink.AddPeer(obuLink.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := obuLink.AddPeer(rsuLink.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	return serveOnLink(t, rsuLink, 1001, units.StationTypeRoadSideUnit, n),
		serveOnLink(t, obuLink, 2001, units.StationTypePassengerCar, n)
}

func newUDPLink(t *testing.T) *UDPLink {
	t.Helper()
	l, err := NewUDPLink("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// serveOnLink serves a mux on link hosting n stations from first on.
func serveOnLink(t *testing.T, link *UDPLink, first uint32, st units.StationType, n int) *MuxServer {
	t.Helper()
	srv, err := NewMuxServer(MuxConfig{Addr: "127.0.0.1:0", Link: link})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := srv.Register(first+uint32(i), st, geo.CISTERLab); err != nil {
			t.Fatal(err)
		}
	}
	link.Start(srv)
	go srv.Serve()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

// station returns a hosted station, failing the test when it is absent.
func station(t *testing.T, srv *MuxServer, id uint32) *RealNode {
	t.Helper()
	n, ok := srv.Station(id)
	if !ok {
		t.Fatalf("station %d not hosted", id)
	}
	return n
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

// getJSON fetches path from srv, requires 200 and decodes into v.
func getJSON(t *testing.T, srv *MuxServer, path string, v any) {
	t.Helper()
	resp, err := http.Get("http://" + srv.Addr() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func TestRealNodeDENMOverUDP(t *testing.T) {
	rsuSrv, obuSrv := udpPair(t, 1)
	rsu, obu := station(t, rsuSrv, 1001), station(t, obuSrv, 2001)
	id, err := rsu.TriggerDENM(collisionReq())
	if err != nil {
		t.Fatal(err)
	}
	var batch []ReceivedDENM
	if !waitFor(t, 2*time.Second, func() bool {
		batch = append(batch, obu.RequestDENM()...)
		return len(batch) > 0
	}) {
		t.Fatal("DENM never crossed the UDP link")
	}
	d := batch[0].DENM
	if d.Management.ActionID.OriginatingStationID != id.OriginatingStationID {
		t.Fatal("wrong origin")
	}
	if d.Situation.EventType.CauseCode != 97 {
		t.Fatal("wrong cause")
	}
}

// TestRealNodeCAMOverUDP: a CAM crosses the link into the OBU daemon's
// LDM and its station's flight ring.
func TestRealNodeCAMOverUDP(t *testing.T) {
	rsuSrv, obuSrv := udpPair(t, 1)
	if err := station(t, rsuSrv, 1001).TriggerCAM(); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 2*time.Second, func() bool {
		objects, _ := obuSrv.ldm.Counts()
		return objects == 1
	}) {
		t.Fatal("CAM never reached the OBU daemon's LDM")
	}
	var ldmPage struct {
		Objects int `json:"objects"`
	}
	getJSON(t, obuSrv, "/ldm", &ldmPage)
	if ldmPage.Objects != 1 {
		t.Fatalf("/ldm objects %d, want 1", ldmPage.Objects)
	}
	var rx []flight.EventRecord
	for _, ev := range obuSrv.FlightSnapshot().Events {
		if ev.Kind == "cam.rx" {
			rx = append(rx, ev)
		}
	}
	if len(rx) != 1 || rx[0].Station != "2001" || rx[0].A != 1001 {
		t.Fatalf("cam.rx events %+v, want one at 2001 from 1001", rx)
	}
}

func TestHTTPServerEndpoints(t *testing.T) {
	forFleets(t, func(t *testing.T, n int) {
		rsuSrv, obuSrv := udpPair(t, n)

		// trigger_denm on the RSU.
		body, err := json.Marshal(collisionReq())
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post("http://"+rsuSrv.Addr()+"/trigger_denm", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var tr TriggerResponse
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !tr.OK || tr.OriginatingStationID != 1001 {
			t.Fatalf("trigger response %+v", tr)
		}

		// request_denm on the OBU until the DENM shows up.
		var batch []DENMSummary
		if !waitFor(t, 2*time.Second, func() bool {
			resp, err := http.Post("http://"+obuSrv.Addr()+"/request_denm", "application/json", nil)
			if err != nil {
				return false
			}
			defer resp.Body.Close()
			batch = nil
			if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
				return false
			}
			return len(batch) > 0
		}) {
			t.Fatal("request_denm never returned the DENM")
		}
		if batch[0].CauseCode != 97 || batch[0].CauseDescription != "collisionRisk" {
			t.Fatalf("summary %+v", batch[0])
		}

		// causes endpoint.
		var causes []struct {
			Code        uint8  `json:"code"`
			Description string `json:"description"`
		}
		getJSON(t, rsuSrv, "/causes", &causes)
		found := false
		for _, c := range causes {
			if c.Code == 97 && c.Description == "collisionRisk" {
				found = true
			}
		}
		if !found {
			t.Fatal("cause 97 missing from /causes")
		}

		// Method checks.
		mresp, err := http.Get("http://" + rsuSrv.Addr() + "/trigger_denm")
		if err != nil {
			t.Fatal(err)
		}
		mresp.Body.Close()
		if mresp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET trigger_denm status %d", mresp.StatusCode)
		}

		// Bad JSON.
		bresp, err := http.Post("http://"+rsuSrv.Addr()+"/trigger_denm", "application/json", bytes.NewReader([]byte("{bad")))
		if err != nil {
			t.Fatal(err)
		}
		bresp.Body.Close()
		if bresp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad JSON status %d", bresp.StatusCode)
		}
	})
}

func TestRealNodeValidation(t *testing.T) {
	if _, err := NewRealNode(RealNodeConfig{}); err == nil {
		t.Fatal("node without link accepted")
	}
}

func TestSimNodeTriggerWithRepetition(t *testing.T) {
	reg := metrics.NewRegistry()
	k, rsu, obu := simPair(t, trace.Sink{Metrics: reg})
	req := collisionReq()
	req.RepetitionIntervalMS = 100
	req.RepetitionDurationMS = 450
	rsu.TriggerDENM(req, nil)
	k.Run(2 * time.Second)
	// Initial + ~4 repetitions reach the OBU stack; the DEN receiver
	// suppresses the repeats, so the mailbox holds exactly one DENM.
	if pending(obu) != 1 {
		t.Fatalf("mailbox depth %d, want 1 (repetitions deduplicated)", pending(obu))
	}
	snap := reg.Snapshot()
	rx, _ := snap.FindCounter("den_rx_received_total", trace.StationLabel("obu"))
	supp, _ := snap.FindCounter("den_rx_suppressed_total", trace.StationLabel("obu"))
	received, repeated := rx.Value, supp.Value
	if received < 4 {
		t.Fatalf("OBU decoded %d DENMs, repetitions missing", received)
	}
	if repeated < 3 {
		t.Fatalf("suppressed %d repetitions, want >=3", repeated)
	}
}

// TestUDPLinkDropsGarbage sends undecodable datagrams (two bytes, and
// an empty one) at the OBU daemon's link: both are counted malformed
// and none reaches a mailbox.
func TestUDPLinkDropsGarbage(t *testing.T) {
	forFleets(t, func(t *testing.T, n int) {
		_, obuSrv := udpPair(t, n)
		conn, err := net.Dial("udp", obuSrv.cfg.Link.(*UDPLink).LocalAddr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for _, garbage := range [][]byte{{0xde, 0xad}, nil} {
			if _, err := conn.Write(garbage); err != nil {
				t.Fatal(err)
			}
		}
		malformed := func() uint64 {
			c, _ := obuSrv.Metrics().Snapshot().FindCounter("openc2x_frames_malformed_total")
			return c.Value
		}
		if !waitFor(t, 2*time.Second, func() bool { return malformed() == 2 }) {
			t.Fatalf("malformed=%d, want 2", malformed())
		}
		for _, id := range obuSrv.StationIDs() {
			if got := pending(station(t, obuSrv, id)); got != 0 {
				t.Fatalf("garbage reached station %d's mailbox (%d)", id, got)
			}
		}
	})
}

// TestMuxRecordsMalformedStage: a frame is flight-recorded under the
// layer that rejected it — radio.rx for a bad GN header, denm.rx or
// cam.rx for a bad payload behind a valid header.
func TestMuxRecordsMalformedStage(t *testing.T) {
	frame := func(port uint16) []byte {
		t.Helper()
		pkt, err := btp.Encode(btp.Header{Type: btp.TypeB, DestinationPort: port}, []byte{0xff, 0xff, 0xff})
		if err != nil {
			t.Fatal(err)
		}
		gn := &geonet.Packet{
			Version:           geonet.CurrentVersion,
			Lifetime:          geonet.Lifetime{Multiplier: 1, Base: 1},
			RemainingHopLimit: 1,
			Next:              geonet.NextBTPB,
			Type:              geonet.HeaderTypeTSB,
			Subtype:           geonet.SubtypeSHB,
			MaxHopLimit:       1,
			Source: geonet.LongPositionVector{
				Address: geonet.NewAddress(units.StationTypeRoadSideUnit, 1001),
			},
			Payload: pkt,
		}
		b, err := gn.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, tc := range []struct {
		name, kind string
		frame      []byte
	}{
		{"gn", "radio.rx", []byte{0xde, 0xad}},
		{"denm", "denm.rx", frame(btp.PortDENM)},
		{"cam", "cam.rx", frame(btp.PortCAM)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newMux(t, 1, MuxConfig{})
			srv.OnFrame(tc.frame)
			evs := srv.FlightSnapshot().Events
			if len(evs) != 1 || evs[0].Kind != tc.kind || evs[0].Code != "malformed" {
				t.Fatalf("flight events %+v, want one %s/malformed", evs, tc.kind)
			}
			if c, _ := srv.Metrics().Snapshot().FindCounter("openc2x_frames_malformed_total"); c.Value != 1 {
				t.Fatalf("malformed counter %d, want 1", c.Value)
			}
		})
	}
}

func TestServerMetricsEndpoint(t *testing.T) {
	forFleets(t, func(t *testing.T, n int) {
		rsuSrv, obuSrv := udpPair(t, n)
		rsuSrv.EnablePprof()

		// Push one DENM across so the counters move.
		if _, err := station(t, rsuSrv, 1001).TriggerDENM(collisionReq()); err != nil {
			t.Fatal(err)
		}
		obu := station(t, obuSrv, 2001)
		waitFor(t, 2*time.Second, func() bool { return pending(obu) > 0 })

		resp, err := http.Get("http://" + rsuSrv.Addr() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("/metrics content type %q", ct)
		}
		var snap metrics.Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		c, ok := snap.FindCounter("openc2x_triggers_total")
		if !ok || c.Value != 1 {
			t.Fatalf("openc2x_triggers_total = %+v (found %v)", c, ok)
		}

		// pprof is mounted on demand.
		pp, err := http.Get("http://" + rsuSrv.Addr() + "/debug/pprof/cmdline")
		if err != nil {
			t.Fatal(err)
		}
		pp.Body.Close()
		if pp.StatusCode != http.StatusOK {
			t.Fatalf("/debug/pprof/cmdline status %d", pp.StatusCode)
		}
	})
}

func TestServerTraceEndpoint(t *testing.T) {
	forFleets(t, func(t *testing.T, n int) {
		rsuSrv, obuSrv := udpPair(t, n)
		if _, err := station(t, rsuSrv, 1001).TriggerDENM(collisionReq()); err != nil {
			t.Fatal(err)
		}
		obu := station(t, obuSrv, 2001)
		if !waitFor(t, 2*time.Second, func() bool { return pending(obu) > 0 }) {
			t.Fatal("DENM never arrived at the OBU")
		}
		// Draining the mailbox moves the DENM's trace into the /trace ring.
		if n := len(obu.RequestDENM()); n != 1 {
			t.Fatalf("drained %d DENMs, want 1", n)
		}

		for _, path := range []string{"/metrics", "/trace", "/debug/flight", "/healthz", "/buildinfo"} {
			resp, err := http.Get("http://" + obuSrv.Addr() + path)
			if err != nil {
				t.Fatal(err)
			}
			ct := resp.Header.Get("Content-Type")
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s status %d", path, resp.StatusCode)
			}
			if ct != "application/json" {
				t.Fatalf("%s content type %q, want application/json", path, ct)
			}
		}

		var page struct {
			Capacity int `json:"capacity"`
			Traces   []struct {
				Spans []struct {
					Name  string `json:"name"`
					Ended bool   `json:"ended"`
				} `json:"spans"`
			} `json:"traces"`
		}
		getJSON(t, obuSrv, "/trace", &page)
		if page.Capacity != 64 || len(page.Traces) != 1 {
			t.Fatalf("trace page capacity=%d traces=%d", page.Capacity, len(page.Traces))
		}
		names := make(map[string]bool)
		for _, sp := range page.Traces[0].Spans {
			names[sp.Name] = true
			if !sp.Ended {
				t.Fatalf("span %q left open in ringed trace", sp.Name)
			}
		}
		if !names["openc2x.rx_frame"] || !names["openc2x.mailbox"] {
			t.Fatalf("trace missing expected spans: %v", names)
		}
	})
}

// TestServerHealthAndBuildinfo checks the operational endpoints: the
// liveness probe reports ok with a nonnegative uptime and the default
// station's ID, /buildinfo carries the toolchain provenance, and
// /debug/flight serves the black-box ring with the received DENM in
// it.
func TestServerHealthAndBuildinfo(t *testing.T) {
	forFleets(t, func(t *testing.T, n int) {
		rsuSrv, obuSrv := udpPair(t, n)
		if _, err := station(t, rsuSrv, 1001).TriggerDENM(collisionReq()); err != nil {
			t.Fatal(err)
		}
		obu := station(t, obuSrv, 2001)
		if !waitFor(t, 2*time.Second, func() bool { return pending(obu) > 0 }) {
			t.Fatal("DENM never arrived at the OBU")
		}

		var health struct {
			Status        string  `json:"status"`
			StationID     uint32  `json:"station_id"`
			Stations      int     `json:"stations"`
			UptimeSeconds float64 `json:"uptime_seconds"`
		}
		getJSON(t, obuSrv, "/healthz", &health)
		if health.Status != "ok" || health.UptimeSeconds < 0 {
			t.Fatalf("healthz = %+v", health)
		}
		if health.StationID != 2001 || health.Stations != n {
			t.Fatalf("healthz station_id=%d stations=%d, want 2001 and %d", health.StationID, health.Stations, n)
		}

		var build struct {
			Go            string  `json:"go"`
			Module        string  `json:"module"`
			Stations      int     `json:"stations"`
			UptimeSeconds float64 `json:"uptime_seconds"`
		}
		getJSON(t, obuSrv, "/buildinfo", &build)
		if build.Go == "" {
			t.Fatal("buildinfo missing go version")
		}
		if build.Module != "itsbed" {
			t.Fatalf("buildinfo module %q, want itsbed", build.Module)
		}
		if build.Stations != n {
			t.Fatalf("buildinfo stations = %d, want %d", build.Stations, n)
		}

		var snap struct {
			Events []struct {
				Kind    string `json:"kind"`
				Station string `json:"station"`
			} `json:"events"`
		}
		getJSON(t, obuSrv, "/debug/flight", &snap)
		var sawRx bool
		for _, ev := range snap.Events {
			if ev.Kind == "denm.rx" && ev.Station == "2001" {
				sawRx = true
			}
		}
		if !sawRx {
			t.Fatalf("flight ring has no denm.rx event at 2001 (%d events)", len(snap.Events))
		}
	})
}

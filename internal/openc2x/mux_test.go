package openc2x

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"itsbed/internal/flight"
	"itsbed/internal/geo"
	"itsbed/internal/its/btp"
	"itsbed/internal/its/geonet"
	"itsbed/internal/its/messages"
	"itsbed/internal/stack"
	"itsbed/internal/units"
)

// newMux boots a loopback-only mux with n stations (IDs 1..n).
func newMux(t *testing.T, n int, cfg MuxConfig) *MuxServer {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	srv, err := NewMuxServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if _, err := srv.Register(uint32(i), units.StationTypePassengerCar, geo.CISTERLab); err != nil {
			t.Fatal(err)
		}
	}
	go srv.Serve()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	} else {
		rd = bytes.NewReader(nil)
	}
	resp, err := http.Post(url, "application/json", rd)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func triggerBody() string {
	return fmt.Sprintf(`{"causeCode":97,"subCauseCode":2,"latitude":%f,"longitude":%f,"quality":3}`,
		geo.CISTERLab.Lat, geo.CISTERLab.Lon)
}

// TestMuxTriggerFansOutToHostedStations is the multiplexing core: one
// station's trigger lands in every other hosted station's mailbox via
// the internal loopback, and each can poll it back out — while the
// sender's own mailbox stays empty (self-skip).
func TestMuxTriggerFansOutToHostedStations(t *testing.T) {
	srv := newMux(t, 3, MuxConfig{})
	base := "http://" + srv.Addr()

	resp, body := postJSON(t, base+"/stations/1/trigger_denm", triggerBody())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trigger status %d: %s", resp.StatusCode, body)
	}
	var tr TriggerResponse
	if err := json.Unmarshal(body, &tr); err != nil || !tr.OK {
		t.Fatalf("trigger response %s", body)
	}
	if tr.OriginatingStationID != 1 {
		t.Fatalf("originating station %d", tr.OriginatingStationID)
	}

	for _, id := range []uint32{2, 3} {
		node, _ := srv.Station(id)
		if !waitFor(t, time.Second, func() bool { return pending(node) == 1 }) {
			t.Fatalf("station %d mailbox depth %d, want 1", id, pending(node))
		}
	}
	if node, _ := srv.Station(1); pending(node) != 0 {
		t.Fatalf("sender's own mailbox depth %d, want 0 (self-skip)", pending(node))
	}

	resp, body = postJSON(t, base+"/stations/2/request_denm", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poll status %d", resp.StatusCode)
	}
	var batch []DENMSummary
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch) != 1 || batch[0].OriginatingStationID != 1 {
		t.Fatalf("poll batch %s", body)
	}
	// Drained: a second poll returns the empty array.
	if _, body = postJSON(t, base+"/stations/2/request_denm", ""); string(bytes.TrimSpace(body)) != "[]" {
		t.Fatalf("second poll %q, want []", body)
	}

	// The shared LDM saw the DENM once.
	if _, events := srv.ldm.Counts(); events != 1 {
		t.Fatalf("LDM events %d, want 1", events)
	}
}

// TestMuxLegacyAliases keeps the single-station API working: the
// legacy routes target the first registered station.
func TestMuxLegacyAliases(t *testing.T) {
	srv := newMux(t, 2, MuxConfig{})
	base := "http://" + srv.Addr()

	resp, body := postJSON(t, base+"/trigger_denm", triggerBody())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("legacy trigger status %d: %s", resp.StatusCode, body)
	}
	var tr TriggerResponse
	if err := json.Unmarshal(body, &tr); err != nil || tr.OriginatingStationID != 1 {
		t.Fatalf("legacy trigger should hit station 1: %s", body)
	}

	node, _ := srv.Station(2)
	if !waitFor(t, time.Second, func() bool { return pending(node) == 1 }) {
		t.Fatal("station 2 never received the legacy-triggered DENM")
	}

	// Legacy trace and poll answer for station 1.
	resp, err := http.Get(base + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("legacy /trace status %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, base+"/request_denm", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("legacy poll status %d", resp.StatusCode)
	}
}

// TestMuxUnknownStation404 rejects routes for unhosted stations.
func TestMuxUnknownStation404(t *testing.T) {
	srv := newMux(t, 1, MuxConfig{})
	base := "http://" + srv.Addr()
	resp, _ := postJSON(t, base+"/stations/99/trigger_denm", triggerBody())
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown station status %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, base+"/stations/banana/trigger_denm", triggerBody())
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed station ID status %d, want 400", resp.StatusCode)
	}
}

// TestMuxRegistrationAPI registers and deregisters over HTTP.
func TestMuxRegistrationAPI(t *testing.T) {
	srv := newMux(t, 1, MuxConfig{})
	base := "http://" + srv.Addr()
	client := &http.Client{}

	do := func(method, path, body string) *http.Response {
		t.Helper()
		var rd *strings.Reader = strings.NewReader(body)
		req, err := http.NewRequest(method, base+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := do(http.MethodPut, "/stations/42", ""); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register status %d, want 201", resp.StatusCode)
	}
	if resp := do(http.MethodPut, "/stations/42", ""); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate register status %d, want 409", resp.StatusCode)
	}
	if srv.StationCount() != 2 {
		t.Fatalf("station count %d, want 2", srv.StationCount())
	}
	if resp, _ := postJSON(t, base+"/stations/42/request_denm", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("poll of registered station status %d", resp.StatusCode)
	}
	if resp := do(http.MethodDelete, "/stations/42", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("deregister status %d", resp.StatusCode)
	}
	if resp := do(http.MethodDelete, "/stations/42", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double deregister status %d, want 404", resp.StatusCode)
	}
	if resp, _ := postJSON(t, base+"/stations/42/request_denm", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("poll of deregistered station status %d, want 404", resp.StatusCode)
	}
}

// TestMuxMethodNotAllowed: the Go 1.22 method patterns answer wrong
// methods with 405 and an Allow header.
func TestMuxMethodNotAllowed(t *testing.T) {
	srv := newMux(t, 1, MuxConfig{})
	base := "http://" + srv.Addr()
	resp, err := http.Get(base + "/stations/1/trigger_denm")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET trigger status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "POST") {
		t.Fatalf("Allow header %q, want POST", allow)
	}
}

// TestMuxBodyTooLarge: oversized POST bodies are answered 413.
func TestMuxBodyTooLarge(t *testing.T) {
	srv := newMux(t, 1, MuxConfig{})
	base := "http://" + srv.Addr()
	huge := `{"causeCode":97,"pad":"` + strings.Repeat("x", DefaultMaxBodyBytes+1) + `"}`
	resp, _ := postJSON(t, base+"/stations/1/trigger_denm", huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status %d, want 413", resp.StatusCode)
	}
}

// TestMuxRegisterBodyTooLarge: an oversized PUT /stations/{id} body is
// answered 413 like the POST routes' and registers nothing; a JSON body
// sets the station's type.
func TestMuxRegisterBodyTooLarge(t *testing.T) {
	srv := newMux(t, 1, MuxConfig{})
	put := func(id uint32, body string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, fmt.Sprintf("http://%s/stations/%d", srv.Addr(), id), strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	huge := `{"stationType":5,"pad":"` + strings.Repeat("x", DefaultMaxBodyBytes+1) + `"}`
	if status := put(42, huge); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized register status %d, want 413", status)
	}
	if _, ok := srv.Station(42); ok || srv.StationCount() != 1 {
		t.Fatalf("oversized body registered station 42 (count %d)", srv.StationCount())
	}
	if status := put(43, "{bad"); status != http.StatusBadRequest {
		t.Fatalf("malformed register status %d, want 400", status)
	}
	if status := put(44, `{"stationType":15}`); status != http.StatusCreated {
		t.Fatalf("register status %d, want 201", status)
	}
	if n := station(t, srv, 44); n.stationType != units.StationTypeRoadSideUnit {
		t.Fatalf("station 44 type %d, want %d", n.stationType, units.StationTypeRoadSideUnit)
	}
}

// TestMuxConcurrentRegistration churns the station table from many
// goroutines while traffic flows — the registration/deregistration
// race satellite, meaningful under -race.
func TestMuxConcurrentRegistration(t *testing.T) {
	srv := newMux(t, 8, MuxConfig{})
	base := "http://" + srv.Addr()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Churners: register/deregister disjoint ID bands.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := uint32(100 + w*100 + i%20)
				srv.Register(id, units.StationTypePassengerCar, geo.CISTERLab)
				srv.Deregister(id)
			}
		}(w)
	}
	// Traffic against the stable stations.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := uint32(1 + w*3%8)
				resp, err := http.Post(fmt.Sprintf("%s/stations/%d/request_denm", base, id), "application/json", nil)
				if err == nil {
					resp.Body.Close()
				}
			}
		}(w)
	}
	// One broadcaster fanning frames into the churning table.
	wg.Add(1)
	go func() {
		defer wg.Done()
		node, _ := srv.Station(1)
		for i := 0; i < 30; i++ {
			node.TriggerDENM(TriggerRequest{CauseCode: 97, Latitude: geo.CISTERLab.Lat, Longitude: geo.CISTERLab.Lon})
		}
		close(stop)
	}()
	wg.Wait()

	if n := srv.StationCount(); n != 8 {
		t.Fatalf("station count after churn %d, want 8", n)
	}
}

// TestMuxShutdownCompletesInFlightPoll: Shutdown waits for a poll that
// already drained a mailbox, so the response is not lost, and then
// refuses new polls. Station 1 triggers; station 2 is polled by ID.
// TestServerShutdownCompletesInFlightPoll covers the legacy route.
func TestMuxShutdownCompletesInFlightPoll(t *testing.T) {
	srv, err := NewMuxServer(MuxConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for id := uint32(1); id <= 2; id++ {
		if _, err := srv.Register(id, units.StationTypePassengerCar, geo.CISTERLab); err != nil {
			t.Fatal(err)
		}
	}
	inPoll := make(chan struct{})
	release := make(chan struct{})
	srv.pollDelay = func() {
		close(inPoll)
		<-release
	}
	go srv.Serve()

	if _, err := station(t, srv, 1).TriggerDENM(collisionReq()); err != nil {
		t.Fatal(err)
	}
	node := station(t, srv, 2)
	if !waitFor(t, time.Second, func() bool { return pending(node) == 1 }) {
		t.Fatal("station 2 never got the DENM")
	}
	expectPollSurvivesShutdown(t, srv, "/stations/2/request_denm", inPoll, release)
}

// expectPollSurvivesShutdown polls path on srv, whose pollDelay hook
// closes inPoll and then waits for release, shuts srv down while the
// poll is held in the handler, and requires that Shutdown waits for
// it, that the poll returns the one pending DENM, and that a new poll
// is refused afterwards.
func expectPollSurvivesShutdown(t *testing.T, srv *MuxServer, path string, inPoll, release chan struct{}) {
	t.Helper()
	type pollResult struct {
		status int
		batch  []DENMSummary
		err    error
	}
	done := make(chan pollResult, 1)
	go func() {
		resp, err := http.Post("http://"+srv.Addr()+path, "application/json", nil)
		if err != nil {
			done <- pollResult{err: err}
			return
		}
		defer resp.Body.Close()
		var batch []DENMSummary
		err = json.NewDecoder(resp.Body).Decode(&batch)
		done <- pollResult{status: resp.StatusCode, batch: batch, err: err}
	}()
	select {
	case <-inPoll:
	case <-time.After(2 * time.Second):
		t.Fatal("poll never reached the handler")
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		_, err := srv.Shutdown(ctx)
		shutdownDone <- err
	}()
	// Shutdown must block on the in-flight poll.
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned while a poll was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	res := <-done
	if res.err != nil || res.status != http.StatusOK || len(res.batch) != 1 {
		t.Fatalf("in-flight poll result %+v", res)
	}
	// The listener is closed: new polls must be refused.
	if _, err := http.Post("http://"+srv.Addr()+path, "application/json", nil); err == nil {
		t.Fatal("poll succeeded after Shutdown")
	}
}

// TestMuxServeShutdownNoGoroutineLeak cycles a mux through
// serve/traffic/shutdown and checks goroutines return to baseline.
func TestMuxServeShutdownNoGoroutineLeak(t *testing.T) {
	runtime.GC()
	before := runtime.NumGoroutine()
	for cycle := 0; cycle < 3; cycle++ {
		srv, err := NewMuxServer(MuxConfig{Addr: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 20; i++ {
			if _, err := srv.Register(uint32(i), units.StationTypePassengerCar, geo.CISTERLab); err != nil {
				t.Fatal(err)
			}
		}
		serveDone := make(chan struct{})
		go func() { srv.Serve(); close(serveDone) }()
		client := &http.Client{}
		for i := 0; i < 10; i++ {
			resp, err := client.Post("http://"+srv.Addr()+"/stations/1/trigger_denm",
				"application/json", strings.NewReader(triggerBody()))
			if err == nil {
				resp.Body.Close()
			}
		}
		client.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if _, err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("cycle %d shutdown: %v", cycle, err)
		}
		cancel()
		<-serveDone
	}
	if !waitFor(t, 2*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+3
	}) {
		t.Fatalf("goroutines %d after cycles, baseline %d", runtime.NumGoroutine(), before)
	}
}

// TestMuxSharedMetrics: hosted stations aggregate into one registry —
// the daemon's /metrics stays O(families), not O(stations).
func TestMuxSharedMetrics(t *testing.T) {
	srv := newMux(t, 5, MuxConfig{})
	base := "http://" + srv.Addr()
	for i := 1; i <= 5; i++ {
		resp, body := postJSON(t, fmt.Sprintf("%s/stations/%d/trigger_denm", base, i), triggerBody())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trigger %d: %d %s", i, resp.StatusCode, body)
		}
	}
	snap := srv.Metrics().Snapshot()
	c, ok := snap.FindCounter("openc2x_triggers_total")
	if !ok || c.Value != 5 {
		t.Fatalf("shared trigger counter %+v ok=%v, want 5", c, ok)
	}
}

// peerFrame wraps payload in a BTP-B header to port and a single-hop GN
// packet from station 1001, as a peer's radio sends it.
func peerFrame(t *testing.T, port uint16, payload []byte) []byte {
	t.Helper()
	pkt, err := btp.Encode(btp.Header{Type: btp.TypeB, DestinationPort: port}, payload)
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
		Source:            geonet.LongPositionVector{Address: geonet.NewAddress(units.StationTypeRoadSideUnit, 1001)},
		Payload:           pkt,
	}
	b, err := gn.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMuxIgnoresCPM: the daemon decodes CAMs and DENMs only. A CPM
// frame, well-formed or not, reaches no mailbox, no LDM entry, no
// flight event and no malformed count.
func TestMuxIgnoresCPM(t *testing.T) {
	good, err := messages.NewCPM(1001, 0).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"well-formed", good},
		{"garbage", []byte{0xff, 0xff, 0xff}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newMux(t, 1, MuxConfig{})
			srv.OnFrame(peerFrame(t, btp.PortCPM, tc.payload))
			if evs := srv.FlightSnapshot().Events; len(evs) != 0 {
				t.Fatalf("flight events %+v, want none", evs)
			}
			if c, _ := srv.Metrics().Snapshot().FindCounter("openc2x_frames_malformed_total"); c.Value != 0 {
				t.Fatalf("malformed counter %d, want 0", c.Value)
			}
			if objects, events := srv.ldm.Counts(); objects+events != 0 {
				t.Fatalf("LDM holds %d objects and %d events, want none", objects, events)
			}
			if got := station(t, srv, 1).RequestDENM(); len(got) != 0 {
				t.Fatalf("mailbox holds %d DENMs, want none", len(got))
			}
		})
	}
}

// TestMuxKeepsNoFrameBytes: the mux decodes a frame in place, so what
// it keeps must be copies. Overwriting the frame after OnFrame returns
// leaves the polled DENM and /ldm unchanged.
func TestMuxKeepsNoFrameBytes(t *testing.T) {
	link := &frameLog{}
	peer, err := NewRealNode(RealNodeConfig{
		StationID:   1001,
		StationType: units.StationTypeRoadSideUnit,
		Position:    geo.CISTERLab,
		Link:        link,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := peer.TriggerDENM(collisionReq()); err != nil {
		t.Fatal(err)
	}
	if err := peer.TriggerCAM(); err != nil {
		t.Fatal(err)
	}
	want := stack.ParseFrame(append([]byte(nil), link.frames[0]...))
	want.Decode()
	if want.DENM == nil {
		t.Fatalf("the peer's first frame holds no DENM (%v)", want.Err)
	}

	srv := newMux(t, 1, MuxConfig{})
	for _, frame := range link.frames {
		srv.OnFrame(frame)
	}
	var ldmBefore, ldmAfter map[string]any
	getJSON(t, srv, "/ldm", &ldmBefore)
	for _, frame := range link.frames {
		for i := range frame {
			frame[i] = 0xa5
		}
	}
	getJSON(t, srv, "/ldm", &ldmAfter)
	if !reflect.DeepEqual(ldmBefore, ldmAfter) {
		t.Fatalf("/ldm changed with the frame bytes: %v, then %v", ldmBefore, ldmAfter)
	}
	if ldmBefore["objects"] != 1.0 || ldmBefore["events"] != 1.0 {
		t.Fatalf("/ldm %v, want one object and one event", ldmBefore)
	}
	got := station(t, srv, 1).RequestDENM()
	if len(got) != 1 {
		t.Fatalf("polled %d DENMs, want 1", len(got))
	}
	if !reflect.DeepEqual(got[0].DENM, want.DENM) {
		t.Fatalf("polled DENM changed with the frame bytes:\n got %+v\nwant %+v", got[0].DENM, want.DENM)
	}
}

// TestMuxRecordsConcurrently drives the mux's one flight recorder from
// three goroutines at once: HTTP trigger_denm handlers (denm.tx at the
// sender, denm.rx at the others), the receive path (a peer's DENMs and
// malformed frames through OnFrame) and GET /debug/flight snapshots.
// Under -race it pins that the mux records through a locked recorder.
func TestMuxRecordsConcurrently(t *testing.T) {
	const rounds = 10
	link := &frameLog{}
	peer, err := NewRealNode(RealNodeConfig{
		StationID:   1001,
		StationType: units.StationTypeRoadSideUnit,
		Position:    geo.CISTERLab,
		Link:        link,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		if _, err := peer.TriggerDENM(collisionReq()); err != nil {
			t.Fatal(err)
		}
	}
	bad := peerFrame(t, btp.PortDENM, []byte{0xff, 0xff, 0xff})

	srv := newMux(t, 3, MuxConfig{})
	base := "http://" + srv.Addr()
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			resp, err := http.Post(base+"/stations/1/trigger_denm", "application/json", strings.NewReader(triggerBody()))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("trigger status %d", resp.StatusCode)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for _, frame := range link.frames {
			srv.OnFrame(frame)
			srv.OnFrame(bad)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			resp, err := http.Get(base + "/debug/flight")
			if err != nil {
				t.Error(err)
				return
			}
			var snap flight.Snapshot
			err = json.NewDecoder(resp.Body).Decode(&snap)
			resp.Body.Close()
			if err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()

	// Station 1 sent rounds DENMs; stations 2 and 3 each received those
	// and the peer's; the mux itself saw rounds malformed DENMs.
	want := map[string]int{"1 denm.tx": rounds, "2 denm.rx ok": 2 * rounds, "3 denm.rx ok": 2 * rounds, "mux denm.rx malformed": rounds}
	count := func() map[string]int {
		got := make(map[string]int)
		for _, ev := range srv.FlightSnapshot().Events {
			key := ev.Station + " " + ev.Kind
			if ev.Code != "" {
				key += " " + ev.Code
			}
			got[key]++
		}
		return got
	}
	if !waitFor(t, 2*time.Second, func() bool {
		got := count()
		for k, n := range want {
			if got[k] != n {
				return false
			}
		}
		return true
	}) {
		t.Fatalf("flight events by station and kind %v, want %v", count(), want)
	}
}

// TestMuxLDMExpiresEvents: the shared LDM drops expired events without
// a caller sweeping it. Each round triggers 1000 DENMs of 1 s validity
// across three stations, then waits past their expiry: the next round's
// ingests sweep them, so the map never holds more than one round.
func TestMuxLDMExpiresEvents(t *testing.T) {
	srv := newMux(t, 3, MuxConfig{})
	req := collisionReq()
	req.ValiditySeconds = 1
	for round := 1; round <= 3; round++ {
		for i := 0; i < 1000; i++ {
			if _, err := station(t, srv, uint32(1+i%3)).TriggerDENM(req); err != nil {
				t.Fatal(err)
			}
		}
		if _, events := srv.ldm.Counts(); events != 1000 {
			t.Fatalf("round %d: LDM holds %d events, want 1000", round, events)
		}
		time.Sleep(1100 * time.Millisecond)
	}
}

package openc2x

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"itsbed/internal/flight"
	"itsbed/internal/geo"
	"itsbed/internal/its/btp"
	"itsbed/internal/its/facilities/ldm"
	"itsbed/internal/metrics"
	"itsbed/internal/stack"
	"itsbed/internal/trace"
	"itsbed/internal/units"
)

// muxShards is the station-table shard count: registration, lookup and
// frame fanout contend on independent locks so a thousand stations
// behind one listener never serialise on a single mutex.
const muxShards = 16

// MuxConfig parameterises a multiplexed daemon.
type MuxConfig struct {
	// Addr is the HTTP listen address (":1188"; ":0" in tests).
	Addr string
	// Link, when non-nil, is the uplink towards real peers (the UDP
	// air-interface stand-in). Frames sent by hosted stations go out
	// the uplink and fan out internally; inbound frames are fed to
	// OnFrame by the link's read loop. Nil keeps the daemon's radio
	// loopback-only: hosted stations still hear each other.
	Link DatagramLink
	// Limits is the overload-protection configuration; zero fields
	// select DefaultLimits.
	Limits Limits
	// MailboxCap bounds each hosted station's DENM mailbox (zero:
	// DefaultMailboxCap, negative: unbounded).
	MailboxCap int
	// MaxStations caps admission: registrations beyond it are refused
	// with 503. Zero selects 4096.
	MaxStations int
	// FlightCapacity sizes each station's black-box ring in the shared
	// locked recorder; zero selects 64 (smaller than flight.DefaultCapacity
	// because a fleet has hundreds of rings).
	FlightCapacity int
	// Faults, when non-nil, screens trigger/poll requests for injected
	// wall-clock faults (the soak harness's crash/timeout plans).
	Faults HTTPFaultModel
	// Logger defaults to a discarding logger.
	Logger *slog.Logger
	// Position anchors the shared LDM's geodetic frame; the zero value
	// selects the CISTER lab.
	Position geo.LatLon
}

// MuxServer is the OpenC2X daemon behind rsud and obud: one listener
// hosting one to thousands of ITS stations. The OpenC2X routes target
// the default station (the first one registered):
//
//	POST /trigger_denm  — body TriggerRequest, response TriggerResponse
//	POST /request_denm  — response []DENMSummary (empty array when none)
//	POST /trigger_cam   — broadcast one CAM
//	GET  /trace         — ring of the station's 64 most recent DENM traces
//
// The same routes exist per station, with the station ID in the path,
// next to the fleet's own:
//
//	PUT    /stations/{id}                — register (admission-controlled)
//	DELETE /stations/{id}                — deregister
//	GET    /stations                     — list hosted station IDs
//	POST   /stations/{id}/trigger_denm
//	POST   /stations/{id}/request_denm
//	POST   /stations/{id}/trigger_cam
//	GET    /stations/{id}/trace
//
// Shared routes: /causes (the DENM cause-code registry), /metrics (one
// aggregated registry for the whole daemon), /ldm, /debug/flight (the
// black-box ring), /healthz (liveness, uptime and the default
// station's ID) and /buildinfo (binary provenance).
//
// Every POST endpoint sits behind the overload guard: bounded
// concurrency and admission queues shed with 429 + Retry-After, and
// per-request deadlines answer 503 instead of pinning connections.
type MuxServer struct {
	cfg    MuxConfig
	srv    *http.Server
	ln     net.Listener
	mux    *http.ServeMux
	start  time.Time
	logger *slog.Logger

	// p is the daemon-level handle: the registry and flight recorder
	// every hosted station shares, and the "mux" ring for sheds and
	// malformed frames.
	p   trace.Probe
	ldm *ldm.Sharded

	shards [muxShards]muxShard
	// defaultID is the legacy routes' target, the first registered
	// station.
	defaultMu sync.RWMutex
	defaultID uint32

	registered   *metrics.Counter
	deregistered *metrics.Counter
	unknown      *metrics.Counter
	malformed    *metrics.Counter
	stationsG    *metrics.Gauge

	// pollDelay, when non-nil, runs inside the poll handler after the
	// mailbox drain and before the response is written. Tests use it to
	// hold a poll in flight across a Shutdown call.
	pollDelay func()
}

type muxShard struct {
	mu    sync.RWMutex
	nodes map[uint32]*RealNode
}

// muxLink is the DatagramLink hosted stations transmit through: frames
// go out the daemon's uplink (if any) and fan out to every other
// hosted station after a single decode.
type muxLink struct {
	s *MuxServer
}

func (l *muxLink) SendBroadcast(frame []byte) error {
	var err error
	if l.s.cfg.Link != nil {
		err = l.s.cfg.Link.SendBroadcast(frame)
	}
	l.s.OnFrame(frame)
	return err
}

// NewMuxServer binds the service to cfg.Addr.
func NewMuxServer(cfg MuxConfig) (*MuxServer, error) {
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("openc2x: listen %q: %w", cfg.Addr, err)
	}
	if cfg.MaxStations <= 0 {
		cfg.MaxStations = 4096
	}
	if cfg.FlightCapacity <= 0 {
		cfg.FlightCapacity = 64
	}
	if cfg.Position == (geo.LatLon{}) {
		cfg.Position = geo.CISTERLab
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	frame, err := geo.NewFrame(cfg.Position)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("openc2x: %w", err)
	}
	start := time.Now()
	reg := metrics.NewRegistry()
	s := &MuxServer{
		cfg:    cfg,
		ln:     ln,
		start:  start,
		logger: logger,
		p:      trace.Sink{Metrics: reg, Flight: flight.NewLockedRecorder(cfg.FlightCapacity)}.Probe("mux"),
		ldm: ldm.NewSharded(ldm.DefaultShards, ldm.Config{
			Frame: frame,
			Now:   func() time.Duration { return time.Since(start) },
			// Hosted stations may CAM rarely; keep remote state
			// around long enough for a slow poller to see it.
			ObjectLifetime: 5 * time.Second,
		}),
		registered:   reg.Counter("mux_stations_registered_total"),
		deregistered: reg.Counter("mux_stations_deregistered_total"),
		unknown:      reg.Counter("mux_station_not_found_total"),
		malformed:    reg.Counter("openc2x_frames_malformed_total"),
		stationsG:    reg.Gauge("mux_stations"),
	}
	for i := range s.shards {
		s.shards[i].nodes = make(map[uint32]*RealNode)
	}

	guardFor := func(endpoint string) *guard {
		return newGuard(endpoint, cfg.Limits, s.p, start)
	}
	trigger := guardFor("trigger_denm")
	request := guardFor("request_denm")
	cam := guardFor("trigger_cam")
	scrape := guardFor("metrics")
	trace := guardFor("trace")

	mux := http.NewServeMux()
	// Per-station routes. Method-qualified patterns give wrong-method
	// requests a 405 with an Allow header from the ServeMux itself.
	mux.Handle("POST /stations/{id}/trigger_denm", trigger.wrap(s.stationHandler(s.serveTrigger)))
	mux.Handle("POST /stations/{id}/request_denm", request.wrap(s.stationHandler(s.servePoll)))
	mux.Handle("POST /stations/{id}/trigger_cam", cam.wrap(s.stationHandler(s.serveCAM)))
	mux.Handle("GET /stations/{id}/trace", trace.wrap(s.stationHandler(func(n *RealNode, w http.ResponseWriter, r *http.Request) {
		n.TraceHandler().ServeHTTP(w, r)
	})))
	mux.HandleFunc("PUT /stations/{id}", s.serveRegister)
	mux.HandleFunc("DELETE /stations/{id}", s.serveDeregister)
	mux.HandleFunc("GET /stations", s.serveList)

	// Legacy single-station aliases target the default station.
	mux.Handle("POST /trigger_denm", trigger.wrap(s.defaultHandler(s.serveTrigger)))
	mux.Handle("POST /request_denm", request.wrap(s.defaultHandler(s.servePoll)))
	mux.Handle("POST /trigger_cam", cam.wrap(s.defaultHandler(s.serveCAM)))
	mux.Handle("GET /trace", trace.wrap(s.defaultHandler(func(n *RealNode, w http.ResponseWriter, r *http.Request) {
		n.TraceHandler().ServeHTTP(w, r)
	})))

	// Shared routes.
	mux.HandleFunc("GET /causes", handleCauses)
	mux.Handle("GET /metrics", scrape.wrap(metrics.Handler(func() metrics.Snapshot { return reg.Snapshot() })))
	mux.Handle("GET /debug/flight", flight.Handler(s.FlightSnapshot))
	mux.HandleFunc("GET /ldm", s.serveLDM)
	mux.HandleFunc("GET /healthz", s.serveHealthz)
	mux.HandleFunc("GET /buildinfo", s.serveBuildinfo)

	s.mux = mux
	s.srv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      15 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	return s, nil
}

// EnablePprof mounts the net/http/pprof handlers (call before Serve).
func (s *MuxServer) EnablePprof() {
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Addr returns the bound listen address.
func (s *MuxServer) Addr() string { return s.ln.Addr().String() }

// Metrics returns the daemon's shared registry.
func (s *MuxServer) Metrics() *metrics.Registry { return s.p.Sink().Metrics }

// FlightSnapshot exports the shared black-box recorder.
func (s *MuxServer) FlightSnapshot() flight.Snapshot { return s.p.Sink().Flight.Snapshot() }

// Serve blocks serving the API until Close/Shutdown.
func (s *MuxServer) Serve() error {
	err := s.srv.Serve(s.ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Close shuts down immediately, dropping in-flight requests.
func (s *MuxServer) Close() error { return s.srv.Close() }

// Shutdown stops accepting connections, waits for in-flight requests
// up to the context deadline, then drains every hosted station's
// mailbox. Returns the total number of undelivered DENMs dropped.
func (s *MuxServer) Shutdown(ctx context.Context) (int, error) {
	err := s.srv.Shutdown(ctx)
	dropped := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		nodes := make([]*RealNode, 0, len(sh.nodes))
		for _, n := range sh.nodes {
			nodes = append(nodes, n)
		}
		sh.mu.RUnlock()
		for _, n := range nodes {
			dropped += n.DrainMailbox("shutdown")
		}
	}
	return dropped, err
}

// shardFor maps a station ID to its table shard.
func (s *MuxServer) shardFor(id uint32) *muxShard {
	return &s.shards[id%muxShards]
}

// Register admits a hosted station. The returned node shares the
// daemon's registry, flight recorder and radio.
func (s *MuxServer) Register(id uint32, st units.StationType, pos geo.LatLon) (*RealNode, error) {
	if id == 0 {
		return nil, fmt.Errorf("openc2x: station ID must be nonzero")
	}
	if s.StationCount() >= s.cfg.MaxStations {
		return nil, fmt.Errorf("openc2x: station table full (%d)", s.cfg.MaxStations)
	}
	if pos == (geo.LatLon{}) {
		pos = s.cfg.Position
	}
	node, err := NewRealNode(RealNodeConfig{
		StationID:   units.StationID(id),
		StationType: st,
		Position:    pos,
		Link:        &muxLink{s: s},
		Logger:      s.logger,
		MailboxCap:  s.cfg.MailboxCap,
		Sink:        s.p.Sink(),
	})
	if err != nil {
		return nil, err
	}
	sh := s.shardFor(id)
	sh.mu.Lock()
	if _, dup := sh.nodes[id]; dup {
		sh.mu.Unlock()
		return nil, fmt.Errorf("openc2x: station %d already registered", id)
	}
	sh.nodes[id] = node
	sh.mu.Unlock()
	s.registered.Inc()
	s.stationsG.Add(1)
	s.defaultMu.Lock()
	if s.defaultID == 0 {
		s.defaultID = id
	}
	s.defaultMu.Unlock()
	return node, nil
}

// Deregister removes a hosted station, dropping its queued DENMs.
// Reports whether the station existed.
func (s *MuxServer) Deregister(id uint32) bool {
	sh := s.shardFor(id)
	sh.mu.Lock()
	node, ok := sh.nodes[id]
	delete(sh.nodes, id)
	sh.mu.Unlock()
	if !ok {
		return false
	}
	node.DrainMailbox("deregistered")
	s.deregistered.Inc()
	s.stationsG.Add(-1)
	return true
}

// Station looks up a hosted station.
func (s *MuxServer) Station(id uint32) (*RealNode, bool) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	n, ok := sh.nodes[id]
	sh.mu.RUnlock()
	return n, ok
}

// StationCount reports how many stations are hosted.
func (s *MuxServer) StationCount() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		total += len(sh.nodes)
		sh.mu.RUnlock()
	}
	return total
}

// StationIDs lists hosted stations, sorted.
func (s *MuxServer) StationIDs() []uint32 {
	out := make([]uint32, 0, s.StationCount())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id := range sh.nodes {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// OnFrame dispatches one inbound (or looped-back) frame: decoded once,
// ingested into the shared LDM, then fanned out to every hosted
// station (each skips its own broadcasts).
func (s *MuxServer) OnFrame(frame []byte) {
	rx := stack.ParseFrame(frame)
	if rx.Port == btp.PortCAM || rx.Port == btp.PortDENM {
		rx.Decode() // the daemon speaks CAM and DENM only
	}
	if rx.Err != nil {
		s.recordMalformed(rx.Stage, len(frame))
		return
	}
	var actionID string
	switch {
	case rx.CAM != nil:
		s.ldm.IngestCAM(rx.CAM)
	case rx.DENM != nil:
		s.ldm.IngestDENM(rx.DENM)
		actionID = actionIDString(rx.DENM.Management.ActionID)
	default:
		return
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, n := range sh.nodes {
			n.deliver(rx, actionID)
		}
		sh.mu.RUnlock()
	}
}

// recordMalformed accounts one undecodable frame under the stage that
// rejected it: the GN header (radio.rx), or the DENM or CAM payload
// behind a valid header (denm.rx, cam.rx).
func (s *MuxServer) recordMalformed(stage string, frameLen int) {
	s.malformed.Inc()
	now := time.Since(s.start)
	switch stage {
	case stack.StageGN:
		s.p.Record(now, flight.RadioRx, flight.RxMalformed, int64(frameLen), 0)
	case stack.StageDENM:
		s.p.Record(now, flight.DENMRx, flight.RxMalformed, 0, 0)
	case stack.StageCAM:
		s.p.Record(now, flight.CAMRx, flight.RxMalformed, 0, 0)
	}
}

// stationHandler resolves {id} and hands the node to fn; unknown
// stations get 404.
func (s *MuxServer) stationHandler(fn func(*RealNode, http.ResponseWriter, *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 32)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "invalid station ID"})
			return
		}
		node, ok := s.Station(uint32(id))
		if !ok {
			s.unknown.Inc()
			writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("station %d not registered", id)})
			return
		}
		fn(node, w, r)
	})
}

// defaultStation is the ID the legacy aliases target: the first
// registered station, or zero before any registration.
func (s *MuxServer) defaultStation() uint32 {
	s.defaultMu.RLock()
	defer s.defaultMu.RUnlock()
	return s.defaultID
}

// defaultHandler routes a legacy alias to the default station.
func (s *MuxServer) defaultHandler(fn func(*RealNode, http.ResponseWriter, *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		node, ok := s.Station(s.defaultStation())
		if !ok {
			s.unknown.Inc()
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "no station registered"})
			return
		}
		fn(node, w, r)
	})
}

// screen applies the injected wall-clock fault verdict for one
// request. Reports whether the request may proceed; on false the
// response has been written (or deliberately delayed into the
// per-request deadline).
func (s *MuxServer) screen(w http.ResponseWriter, verdict func(time.Duration) HTTPVerdict) bool {
	if s.cfg.Faults == nil {
		return true
	}
	switch verdict(time.Since(s.start)) {
	case HTTPTimeout:
		// Wedge the handler past the per-request deadline: the overload
		// layer answers 503 and releases the connection.
		lim := s.cfg.Limits.withDefaults()
		time.Sleep(lim.RequestTimeout + 50*time.Millisecond)
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "injected timeout"})
		return false
	case HTTPError:
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "injected fault"})
		return false
	}
	return true
}

func (s *MuxServer) serveTrigger(n *RealNode, w http.ResponseWriter, r *http.Request) {
	if !s.screen(w, s.faultTrigger) {
		return
	}
	handleTriggerNode(n, w, r)
}

func (s *MuxServer) servePoll(n *RealNode, w http.ResponseWriter, r *http.Request) {
	if !s.screen(w, s.faultPoll) {
		return
	}
	handleRequestNode(n, w, r, s.pollDelay)
}

func (s *MuxServer) serveCAM(n *RealNode, w http.ResponseWriter, r *http.Request) {
	handleTriggerCAMNode(n, w, r)
}

func (s *MuxServer) faultTrigger(now time.Duration) HTTPVerdict {
	return s.cfg.Faults.TriggerVerdict(now)
}

func (s *MuxServer) faultPoll(now time.Duration) HTTPVerdict {
	return s.cfg.Faults.PollVerdict(now)
}

// registerBody is the optional PUT /stations/{id} payload.
type registerBody struct {
	StationType uint8   `json:"stationType,omitempty"`
	Latitude    float64 `json:"latitude,omitempty"`
	Longitude   float64 `json:"longitude,omitempty"`
}

func (s *MuxServer) serveRegister(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 32)
	if err != nil || id == 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "invalid station ID"})
		return
	}
	var body registerBody
	if !decodeBody(w, r, &body, true) {
		return
	}
	st := units.StationType(body.StationType)
	if body.StationType == 0 {
		st = units.StationTypePassengerCar
	}
	pos := geo.LatLon{Lat: body.Latitude, Lon: body.Longitude}
	if _, err := s.Register(uint32(id), st, pos); err != nil {
		status := http.StatusConflict
		if s.StationCount() >= s.cfg.MaxStations {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"ok": true, "station": id})
}

func (s *MuxServer) serveDeregister(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 32)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "invalid station ID"})
		return
	}
	if !s.Deregister(uint32(id)) {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("station %d not registered", id)})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "station": id})
}

func (s *MuxServer) serveList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"stations": s.StationIDs(),
		"count":    s.StationCount(),
		"max":      s.cfg.MaxStations,
	})
}

func (s *MuxServer) serveLDM(w http.ResponseWriter, r *http.Request) {
	objects, events := s.ldm.Counts()
	shardCounts := s.ldm.ShardCounts()
	perShard := make([]map[string]int, len(shardCounts))
	for i, c := range shardCounts {
		perShard[i] = map[string]int{"objects": c[0], "events": c[1]}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"objects": objects,
		"events":  events,
		"shards":  perShard,
	})
}

func (s *MuxServer) serveHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"station_id":     s.defaultStation(),
		"stations":       s.StationCount(),
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

func (s *MuxServer) serveBuildinfo(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"go":             runtime.Version(),
		"uptime_seconds": time.Since(s.start).Seconds(),
		"stations":       s.StationCount(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		out["module"] = bi.Main.Path
		out["version"] = bi.Main.Version
		for _, st := range bi.Settings {
			switch st.Key {
			case "vcs.revision":
				out["revision"] = st.Value
			case "vcs.time":
				out["build_time"] = st.Value
			}
		}
	}
	writeJSON(w, http.StatusOK, out)
}

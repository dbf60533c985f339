package openc2x

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"

	"itsbed/internal/flight"
	"itsbed/internal/geo"
	"itsbed/internal/units"
)

// Daemon holds what tells the rsud and obud daemons apart: their name
// and flag defaults. Run is the daemon itself.
type Daemon struct {
	// Name labels the startup log record and the flag set ("rsud").
	Name string
	// API and Listen are the default HTTP and UDP listen addresses.
	API, Listen string
	// StationID is the default ID of the first hosted station;
	// StationType is every hosted station's type.
	StationID   uint32
	StationType units.StationType
}

// Run parses the daemon flags from args and serves the OpenC2X API of
// -stations hosted stations on one MuxServer, with a UDP link standing
// in for the 802.11p air interface, until ctx is done. Then it shuts
// down gracefully: in-flight polls complete (5 s grace), every hosted
// mailbox is drained and the link closes. Logs go to logw.
func (d Daemon) Run(ctx context.Context, args []string, logw io.Writer) error {
	fs := flag.NewFlagSet(d.Name, flag.ContinueOnError)
	fs.SetOutput(logw)
	api := fs.String("api", d.API, "HTTP API listen address")
	listen := fs.String("listen", d.Listen, "UDP link listen address")
	peers := fs.String("peer", "", "comma-separated UDP peer addresses")
	station := fs.Uint("station", uint(d.StationID), "station ID of the first hosted station")
	lat := fs.Float64("lat", geo.CISTERLab.Lat, "latitude of the hosted stations")
	lon := fs.Float64("lon", geo.CISTERLab.Lon, "longitude of the hosted stations")
	pprof := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the API port")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn or error (per-DENM records log at debug)")
	stations := fs.Int("stations", 1, "hosted station count; IDs run consecutively from -station")
	mailboxCap := fs.Int("mailbox-cap", 0, "per-station DENM mailbox bound (0 = default, negative = unbounded)")
	maxConcurrent := fs.Int("max-concurrent", 0, "concurrent requests per endpoint (0 = default)")
	maxQueue := fs.Int("max-queue", 0, "admission queue depth per endpoint; beyond it requests shed with 429 (0 = default)")
	requestTimeout := fs.Duration("request-timeout", 0, "per-request deadline answered 503 (0 = default)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *stations < 1 {
		return fmt.Errorf("-stations must be at least 1, got %d", *stations)
	}

	logger, err := newLogger(logw, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	var peerList []string
	if *peers != "" {
		peerList = strings.Split(*peers, ",")
	}
	link, err := NewUDPLink(*listen, peerList)
	if err != nil {
		return err
	}
	defer link.Close()

	// A lone station keeps the full black-box ring; a fleet takes the
	// mux's smaller per-station default.
	flightCap := 0
	if *stations == 1 {
		flightCap = flight.DefaultCapacity
	}
	pos := geo.LatLon{Lat: *lat, Lon: *lon}
	srv, err := NewMuxServer(MuxConfig{
		Addr: *api,
		Link: link,
		Limits: Limits{
			MaxConcurrent:  *maxConcurrent,
			MaxQueue:       *maxQueue,
			RequestTimeout: *requestTimeout,
		},
		MailboxCap:     *mailboxCap,
		FlightCapacity: flightCap,
		Logger:         logger,
		Position:       pos,
	})
	if err != nil {
		return err
	}
	for i := 0; i < *stations; i++ {
		id := uint32(*station) + uint32(i)
		if _, err := srv.Register(id, d.StationType, pos); err != nil {
			srv.Close()
			return err
		}
	}
	if *pprof {
		srv.EnablePprof()
	}
	link.Start(srv)
	logger.Info(d.Name+" started",
		"stations", *stations,
		"first_station", *station,
		"api", srv.Addr(),
		"endpoints", "/trigger_denm /request_denm /stations/{id}/... /metrics /trace /ldm /debug/flight /healthz /buildinfo",
		"link", link.LocalAddr(),
		"peers", peerList)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve() }()
	select {
	case <-ctx.Done():
	case err := <-errc:
		return err
	}
	logger.Info("shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	dropped, err := srv.Shutdown(sctx)
	if err != nil {
		logger.Warn("shutdown incomplete, closing", "err", err)
		srv.Close()
	}
	if dropped > 0 {
		logger.Info("drained mailboxes", "undelivered_denms", dropped)
	}
	return <-errc
}

// newLogger builds the daemon's structured logger. format selects the
// slog handler ("text" or "json"); level gates records ("debug",
// "info", "warn", "error") — per-message DENM records are emitted at
// debug level, so the default "info" keeps steady-state output quiet.
func newLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "", "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("openc2x: unknown log level %q (debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("openc2x: unknown log format %q (text|json)", format)
	}
}

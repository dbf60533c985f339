// Command rsud runs an OpenC2X-style Road-Side Unit daemon over real
// sockets: the HTTP API (trigger_denm / request_denm / trigger_cam /
// causes) on one port and a UDP link standing in for the 802.11p air
// interface towards the OBUs.
//
//	rsud -api :1188 -listen :47001 -peer 127.0.0.1:47002 \
//	     -station 1001 -lat 41.178 -lon -8.608
//
// -stations N hosts N stations (IDs from -station on) behind the same
// listener under /stations/{id}/...; the unprefixed routes serve the
// first. SIGINT or SIGTERM shuts the daemon down gracefully.
package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"itsbed/internal/openc2x"
	"itsbed/internal/units"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	d := openc2x.Daemon{
		Name:        "rsud",
		API:         ":1188",
		Listen:      ":47001",
		StationID:   1001,
		StationType: units.StationTypeRoadSideUnit,
	}
	if err := d.Run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, d.Name+":", err)
		os.Exit(1)
	}
}

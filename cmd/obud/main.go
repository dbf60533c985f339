// Command obud runs an OpenC2X-style On-Board Unit daemon over real
// sockets: the vehicle-side HTTP API (request_denm polled by the
// control script) and a UDP link standing in for the 802.11p air
// interface towards the RSU.
//
//	obud -api :1189 -listen :47002 -peer 127.0.0.1:47001 \
//	     -station 2001 -lat 41.178 -lon -8.608
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
		Name:        "obud",
		API:         ":1189",
		Listen:      ":47002",
		StationID:   2001,
		StationType: units.StationTypePassengerCar,
	}
	if err := d.Run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, d.Name+":", err)
		os.Exit(1)
	}
}

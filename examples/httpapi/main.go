// HTTP API: run the OpenC2X-style RSU and OBU nodes over real sockets
// on localhost — genuine HTTP for the API and UDP for the emulated
// 802.11p link — and drive the paper's message flow end to end:
//
//	edge node  --POST /trigger_denm-->  RSU  ~~UDP/GeoNet~~>  OBU
//	vehicle    --POST /request_denm-->  OBU  (DENM delivered)
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"itsbed/internal/edge"
	"itsbed/internal/geo"
	"itsbed/internal/openc2x"
	"itsbed/internal/units"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Two UDP endpoints standing in for the 802.11p radios.
	rsuLink, err := openc2x.NewUDPLink("127.0.0.1:0", nil)
	if err != nil {
		return err
	}
	defer rsuLink.Close()
	obuLink, err := openc2x.NewUDPLink("127.0.0.1:0", nil)
	if err != nil {
		return err
	}
	defer obuLink.Close()
	if err := rsuLink.AddPeer(obuLink.LocalAddr()); err != nil {
		return err
	}
	if err := obuLink.AddPeer(rsuLink.LocalAddr()); err != nil {
		return err
	}

	// One OpenC2X daemon per unit, each hosting a single station.
	rsuAPI, err := serve(rsuLink, 1001, units.StationTypeRoadSideUnit)
	if err != nil {
		return err
	}
	defer rsuAPI.Close()
	obuAPI, err := serve(obuLink, 2001, units.StationTypePassengerCar)
	if err != nil {
		return err
	}
	defer obuAPI.Close()

	fmt.Printf("RSU API on http://%s, OBU API on http://%s\n", rsuAPI.Addr(), obuAPI.Addr())
	ctx := context.Background()
	rsu := &edge.Client{BaseURL: "http://" + rsuAPI.Addr()}
	obu := &edge.Client{BaseURL: "http://" + obuAPI.Addr()}

	// The vehicle's control script: poll the OBU for DENMs.
	fmt.Println("polling OBU /request_denm (expecting none yet)...")
	batch, err := obu.RequestDENM(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("  got %d DENMs\n", len(batch))

	// The edge node detects a hazard: trigger a DENM at the RSU.
	fmt.Println("edge node POSTs /trigger_denm at the RSU (collision risk, crossing)...")
	start := time.Now()
	trigResp, err := rsu.TriggerDENM(ctx, openc2x.TriggerRequest{
		CauseCode:    97,
		SubCauseCode: 2,
		Latitude:     geo.CISTERLab.Lat,
		Longitude:    geo.CISTERLab.Lon,
		Quality:      3,
	})
	if err != nil {
		return err
	}
	fmt.Printf("  RSU accepted: actionID %d/%d\n", trigResp.OriginatingStationID, trigResp.SequenceNumber)

	// Poll the OBU until the DENM lands (UDP is fast; a few tries).
	for i := 0; i < 50; i++ {
		batch, err = obu.RequestDENM(ctx)
		if err != nil {
			return err
		}
		if len(batch) > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(batch) == 0 {
		return fmt.Errorf("DENM never arrived at the OBU")
	}
	d := batch[0]
	fmt.Printf("DENM received at the OBU after %v:\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("  cause %d (%s) / sub-cause %d, event at (%.5f, %.5f)\n",
		d.CauseCode, d.CauseDescription, d.SubCauseCode, d.Latitude, d.Longitude)
	fmt.Println("vehicle control logic would now cut power to the wheels")
	return nil
}

// serve starts an OpenC2X daemon on a loopback port hosting one
// station that transmits over link.
func serve(link *openc2x.UDPLink, id uint32, st units.StationType) (*openc2x.MuxServer, error) {
	srv, err := openc2x.NewMuxServer(openc2x.MuxConfig{Addr: "127.0.0.1:0", Link: link})
	if err != nil {
		return nil, err
	}
	if _, err := srv.Register(id, st, geo.CISTERLab); err != nil {
		srv.Close()
		return nil, err
	}
	link.Start(srv)
	go func() { _ = srv.Serve() }()
	return srv, nil
}

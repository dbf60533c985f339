// HTTP API: run the OpenC2X-style RSU and OBU nodes over real sockets
// on localhost — genuine HTTP for the API and UDP for the emulated
// 802.11p link — and drive the paper's message flow end to end:
//
//	edge node  --POST /trigger_denm-->  RSU  ~~UDP/GeoNet~~>  OBU
//	vehicle    --POST /request_denm-->  OBU  (DENM delivered)
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"time"

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

	// The vehicle's control script: poll the OBU for DENMs.
	fmt.Println("polling OBU /request_denm (expecting none yet)...")
	batch, err := requestDENM(obuAPI.Addr())
	if err != nil {
		return err
	}
	fmt.Printf("  got %d DENMs\n", len(batch))

	// The edge node detects a hazard: trigger a DENM at the RSU.
	fmt.Println("edge node POSTs /trigger_denm at the RSU (collision risk, crossing)...")
	start := time.Now()
	trigResp, err := triggerDENM(rsuAPI.Addr(), openc2x.TriggerRequest{
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
		batch, err = requestDENM(obuAPI.Addr())
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

func triggerDENM(addr string, req openc2x.TriggerRequest) (openc2x.TriggerResponse, error) {
	var out openc2x.TriggerResponse
	body, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	resp, err := http.Post("http://"+addr+"/trigger_denm", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, err
	}
	if !out.OK {
		return out, fmt.Errorf("trigger_denm failed: %s", out.Error)
	}
	return out, nil
}

func requestDENM(addr string) ([]openc2x.DENMSummary, error) {
	resp, err := http.Post("http://"+addr+"/request_denm", "application/json", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out []openc2x.DENMSummary
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

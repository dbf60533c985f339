package openc2x

import (
	"testing"
	"time"

	"itsbed/internal/geo"
	"itsbed/internal/units"
)

// TestServerShutdownCompletesInFlightPoll runs the daemon shape rsud
// and obud use: an RSU daemon triggers a DENM across loopback UDP and
// an OBU daemon is polled on the legacy /request_denm route while it
// shuts down. The in-flight poll keeps its DENM; new polls are refused.
func TestServerShutdownCompletesInFlightPoll(t *testing.T) {
	forFleets(t, func(t *testing.T, n int) {
		rsuLink, obuLink := newUDPLink(t), newUDPLink(t)
		if err := rsuLink.AddPeer(obuLink.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		if err := obuLink.AddPeer(rsuLink.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		rsu := serveOnLink(t, rsuLink, 1001, units.StationTypeRoadSideUnit, n)

		// The OBU daemon is built by hand so the poll hook is in place
		// before it serves.
		obu, err := NewMuxServer(MuxConfig{Addr: "127.0.0.1:0", Link: obuLink})
		if err != nil {
			t.Fatal(err)
		}
		defer obu.Close()
		for i := 0; i < n; i++ {
			if _, err := obu.Register(2001+uint32(i), units.StationTypePassengerCar, geo.CISTERLab); err != nil {
				t.Fatal(err)
			}
		}
		inPoll := make(chan struct{})
		release := make(chan struct{})
		obu.pollDelay = func() {
			close(inPoll)
			<-release
		}
		obuLink.Start(obu)
		go obu.Serve()

		if _, err := station(t, rsu, 1001).TriggerDENM(collisionReq()); err != nil {
			t.Fatal(err)
		}
		node := station(t, obu, 2001)
		if !waitFor(t, 2*time.Second, func() bool { return pending(node) > 0 }) {
			t.Fatal("DENM never crossed the UDP link")
		}
		expectPollSurvivesShutdown(t, obu, "/request_denm", inPoll, release)
	})
}

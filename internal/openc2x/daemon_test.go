package openc2x

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"itsbed/internal/units"
)

// startDaemon runs d with args plus loopback listeners and JSON logs,
// and returns the API and link addresses from its startup record and
// a stop function that cancels it and returns Run's error.
func startDaemon(t *testing.T, d Daemon, args ...string) (api, link string, stop func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	runErr := make(chan error, 1)
	go func() {
		runErr <- d.Run(ctx, append([]string{"-api", "127.0.0.1:0", "-listen", "127.0.0.1:0", "-log-format", "json"}, args...), pw)
		pw.Close()
	}()
	started := make(chan map[string]any, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			var rec map[string]any
			if json.Unmarshal(sc.Bytes(), &rec) == nil && rec["msg"] == d.Name+" started" {
				started <- rec
			}
		}
	}()
	stop = func() error {
		cancel()
		select {
		case err := <-runErr:
			return err
		case <-time.After(5 * time.Second):
			return fmt.Errorf("%s did not stop", d.Name)
		}
	}
	select {
	case rec := <-started:
		return rec["api"].(string), rec["link"].(string), stop
	case err := <-runErr:
		t.Fatalf("%s exited before starting: %v", d.Name, err)
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never logged its start", d.Name)
	}
	return "", "", nil
}

// TestDaemonTriggerToPoll runs the RSU and OBU daemons as the rsud and
// obud mains do: a DENM triggered on the RSU daemon's API is polled
// from the OBU daemon's, and both stop cleanly when their context
// ends.
func TestDaemonTriggerToPoll(t *testing.T) {
	rsud := Daemon{Name: "rsud", StationID: 1001, StationType: units.StationTypeRoadSideUnit}
	obud := Daemon{Name: "obud", StationID: 2001, StationType: units.StationTypePassengerCar}
	forFleets(t, func(t *testing.T, n int) {
		fleet := fmt.Sprint(n)
		obuAPI, obuLink, stopOBU := startDaemon(t, obud, "-stations", fleet)
		rsuAPI, _, stopRSU := startDaemon(t, rsud, "-stations", fleet, "-peer", obuLink)

		resp, err := http.Post("http://"+rsuAPI+"/trigger_denm", "application/json", strings.NewReader(triggerBody()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trigger_denm status %d", resp.StatusCode)
		}
		var batch []DENMSummary
		if !waitFor(t, 2*time.Second, func() bool {
			resp, err := http.Post("http://"+obuAPI+"/request_denm", "application/json", nil)
			if err != nil {
				return false
			}
			defer resp.Body.Close()
			return json.NewDecoder(resp.Body).Decode(&batch) == nil && len(batch) > 0
		}) {
			t.Fatal("the DENM never reached the OBU daemon")
		}
		if batch[0].OriginatingStationID != 1001 {
			t.Fatalf("DENM from station %d, want 1001", batch[0].OriginatingStationID)
		}
		var list struct {
			Stations []uint32 `json:"stations"`
		}
		resp, err = http.Get("http://" + obuAPI + "/stations")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil || len(list.Stations) != n || list.Stations[0] != 2001 {
			t.Fatalf("OBU daemon hosts %v (%v), want %d stations from 2001", list.Stations, err, n)
		}
		if err := stopRSU(); err != nil {
			t.Fatalf("rsud: %v", err)
		}
		if err := stopOBU(); err != nil {
			t.Fatalf("obud: %v", err)
		}
	})
}

// TestDaemonRejectsEmptyFleet: -stations below one is an error, not a
// daemon with nothing behind the OpenC2X routes.
func TestDaemonRejectsEmptyFleet(t *testing.T) {
	d := Daemon{Name: "rsud", StationID: 1001}
	if err := d.Run(context.Background(), []string{"-stations", "0"}, io.Discard); err == nil {
		t.Fatal("-stations 0 accepted")
	}
}

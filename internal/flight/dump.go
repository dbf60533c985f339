package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// WriteJSONL writes one compact JSON object per event — the post-
// mortem dump format (stream-greppable, loadable line by line).
func WriteJSONL(w io.Writer, s Snapshot) error {
	enc := json.NewEncoder(w)
	for _, ev := range s.Events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// detail renders the kind-specific payload of one event for the ASCII
// timeline. Pure function of the record, so timelines are golden-
// testable.
func detail(ev EventRecord) string {
	switch ev.Kind {
	case "radio.tx":
		return fmt.Sprintf("len=%dB", ev.A)
	case "radio.rx":
		if ev.Src != "" {
			return fmt.Sprintf("from=%s len=%dB", ev.Src, ev.A)
		}
		return fmt.Sprintf("len=%dB", ev.A)
	case "radio.drop":
		if ev.Src != "" {
			return fmt.Sprintf("reason=%s from=%s", ev.Code, ev.Src)
		}
		return "reason=" + ev.Code
	case "dcc.state":
		old := "?"
		if int(ev.A) < len(dccStateNames) && ev.A >= 0 {
			old = dccStateNames[ev.A]
		}
		return fmt.Sprintf("%s->%s", old, ev.Code)
	case "dcc.throttle":
		return fmt.Sprintf("min_interval=%s", time.Duration(ev.A))
	case "cam.tx":
		return fmt.Sprintf("station_id=%d", ev.A)
	case "cpm.tx":
		return fmt.Sprintf("objects=%d", ev.A)
	case "cam.rx", "cpm.rx":
		if ev.Code == "malformed" {
			return "malformed"
		}
		return fmt.Sprintf("station_id=%d", ev.A)
	case "denm.tx":
		return fmt.Sprintf("action=%d:%d", ev.A, ev.B)
	case "denm.rx":
		if ev.Code == "malformed" {
			return "malformed"
		}
		return fmt.Sprintf("action=%d:%d", ev.A, ev.B)
	case "ldm.ingest":
		return fmt.Sprintf("source=%s station_id=%d", ev.Code, ev.A)
	case "ldm.expire":
		return fmt.Sprintf("objects=%d events=%d", ev.A, ev.B)
	case "ldm.fuse":
		return fmt.Sprintf("%s origin=%d object=%d", ev.Code, ev.A, ev.B)
	case "watchdog":
		return ev.Code
	case "fault":
		return ev.Code
	case "actuation":
		return ev.Code
	}
	if ev.A != 0 || ev.B != 0 {
		return fmt.Sprintf("a=%d b=%d", ev.A, ev.B)
	}
	return ev.Code
}

// Timeline renders the snapshot as a fixed-width ASCII post-mortem:
// one line per event in global order, millisecond timestamps on the
// simulation clock. Output is deterministic (golden-testable).
func Timeline(s Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "flight recorder: %d events", len(s.Events))
	if s.Evicted > 0 {
		fmt.Fprintf(&b, " (%d older events evicted by ring wraparound)", s.Evicted)
	}
	b.WriteString("\n")
	if len(s.Events) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-7s %12s  %-10s %-13s %s\n", "seq", "t(ms)", "station", "event", "detail")
	for _, ev := range s.Events {
		fmt.Fprintf(&b, "%-7d %12.3f  %-10s %-13s %s\n",
			ev.Seq, float64(ev.AtNS)/1e6, ev.Station, ev.Kind, detail(ev))
	}
	return b.String()
}

// Handler serves the snapshot produced by src as indented JSON — the
// daemons' /debug/flight endpoint.
func Handler(src func() Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(src()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

package openc2x

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"itsbed/internal/geo"
	"itsbed/internal/trace"
)

// TestRealNodeMailboxBounded is the bounded-mailbox regression: with
// MailboxCap set, a burst beyond the cap evicts oldest-first, counts
// the drops, and records them in the black box — memory stays bounded
// no matter how long the client forgets to poll.
// pending reports a node's mailbox depth without draining it.
func pending(n any) int {
	switch n := n.(type) {
	case *RealNode:
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.count
	case *SimNode:
		return len(n.mailbox)
	}
	panic(fmt.Sprintf("pending: %T is no node", n))
}

func TestRealNodeMailboxBounded(t *testing.T) {
	srv := newMux(t, 2, MuxConfig{MailboxCap: 4})
	sender, _ := srv.Station(1)
	receiver, _ := srv.Station(2)

	const sent = 10
	for i := 0; i < sent; i++ {
		if _, err := sender.TriggerDENM(TriggerRequest{
			CauseCode: 97, Latitude: geo.CISTERLab.Lat, Longitude: geo.CISTERLab.Lon,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !waitFor(t, time.Second, func() bool { return receiver.dropped.Value() == sent-4 }) {
		t.Fatalf("dropped %d, want %d", receiver.dropped.Value(), sent-4)
	}
	if depth := pending(receiver); depth != 4 {
		t.Fatalf("mailbox depth %d, want cap 4", depth)
	}

	// Drop-oldest: the survivors are the newest four sequence numbers.
	batch := receiver.RequestDENM()
	if len(batch) != 4 {
		t.Fatalf("batch %d, want 4", len(batch))
	}
	for i, rd := range batch {
		want := uint16(sent - 4 + i + 1)
		if rd.DENM.Management.ActionID.SequenceNumber != want {
			t.Fatalf("batch[%d] seq %d, want %d (drop-oldest)",
				i, rd.DENM.Management.ActionID.SequenceNumber, want)
		}
	}

	// The drop is countable and flight-recorded.
	snap := srv.Metrics().Snapshot()
	if c, ok := snap.FindCounter("openc2x_mailbox_dropped_total"); !ok || c.Value != sent-4 {
		t.Fatalf("mailbox_dropped counter %+v ok=%v, want %d", c, ok, sent-4)
	}
	found := false
	for _, ev := range srv.FlightSnapshot().Events {
		if ev.Kind == "mailbox.drop" && ev.Code == "oldest" {
			found = true
		}
	}
	if !found {
		t.Fatal("no mailbox.drop/oldest event in the flight recorder")
	}
}

// TestRealNodeMailboxUnboundedByDefaultCap: a negative cap disables the
// bound (the historical unbounded behaviour remains reachable).
func TestRealNodeMailboxUnbounded(t *testing.T) {
	srv := newMux(t, 2, MuxConfig{MailboxCap: -1})
	sender, _ := srv.Station(1)
	receiver, _ := srv.Station(2)
	const sent = DefaultMailboxCap + 10
	for i := 0; i < sent; i++ {
		if _, err := sender.TriggerDENM(TriggerRequest{
			CauseCode: 97, Latitude: geo.CISTERLab.Lat, Longitude: geo.CISTERLab.Lon,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !waitFor(t, 2*time.Second, func() bool { return pending(receiver) == sent }) {
		t.Fatalf("mailbox depth %d, want %d (unbounded)", pending(receiver), sent)
	}
	if receiver.dropped.Value() != 0 {
		t.Fatalf("dropped %d, want 0", receiver.dropped.Value())
	}
}

// TestSimNodeMailboxBounded mirrors the regression on the simulation
// node: with MailboxCap set the oldest DENMs are evicted; with the
// default zero cap behaviour is unchanged (campaign goldens depend on
// that).
func TestSimNodeMailboxBounded(t *testing.T) {
	k, rsu, obu := simPair(t, trace.Sink{})
	obu.MailboxCap = 3

	const sent = 7
	for i := 0; i < sent; i++ {
		rsu.TriggerDENM(collisionReq(), nil)
	}
	k.Run(500 * time.Millisecond)
	if pending(obu) != 3 {
		t.Fatalf("mailbox depth %d, want cap 3", pending(obu))
	}
	if obu.MailboxDropped != sent-3 {
		t.Fatalf("dropped %d, want %d", obu.MailboxDropped, sent-3)
	}
	var batch []ReceivedDENM
	obu.RequestDENM(func(b []ReceivedDENM) { batch = b })
	k.Run(time.Second)
	if len(batch) != 3 {
		t.Fatalf("batch %d, want 3", len(batch))
	}
	for i, rd := range batch {
		want := uint16(sent - 3 + i + 1)
		if rd.DENM.Management.ActionID.SequenceNumber != want {
			t.Fatalf("batch[%d] seq %d, want %d (drop-oldest)",
				i, rd.DENM.Management.ActionID.SequenceNumber, want)
		}
	}
}

// TestSimNodeMailboxUnboundedDefault pins the zero-cap default.
func TestSimNodeMailboxUnboundedDefault(t *testing.T) {
	k, rsu, obu := simPair(t, trace.Sink{})
	const sent = 5
	for i := 0; i < sent; i++ {
		rsu.TriggerDENM(collisionReq(), nil)
	}
	k.Run(500 * time.Millisecond)
	if pending(obu) != sent || obu.MailboxDropped != 0 {
		t.Fatalf("depth %d dropped %d, want %d/0", pending(obu), obu.MailboxDropped, sent)
	}
}

// TestRealNodeDrainMailbox checks the shutdown drain reports and
// clears pending DENMs.
func TestRealNodeDrainMailbox(t *testing.T) {
	srv := newMux(t, 2, MuxConfig{})
	sender, receiver := station(t, srv, 1), station(t, srv, 2)
	if _, err := sender.TriggerDENM(collisionReq()); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 2*time.Second, func() bool { return pending(receiver) > 0 }) {
		t.Fatal("DENM never reached the receiver")
	}
	if n := receiver.DrainMailbox("shutdown"); n != 1 {
		t.Fatalf("DrainMailbox = %d, want 1", n)
	}
	if n := receiver.DrainMailbox("shutdown"); n != 0 {
		t.Fatalf("second DrainMailbox = %d, want 0", n)
	}
	if batch := receiver.RequestDENM(); len(batch) != 0 {
		t.Fatalf("poll after drain returned %d DENMs, want 0", len(batch))
	}
}

// TestRealNodeMailboxWrapTraces drives a cap-4 mailbox round its ring
// several times. Every evicted DENM's trace reaches /trace with both
// spans ended and the mailbox_full drop reason; a poll returns the
// survivors oldest first and retires their traces; an empty poll still
// answers [].
func TestRealNodeMailboxWrapTraces(t *testing.T) {
	srv := newMux(t, 2, MuxConfig{MailboxCap: 4})
	sender, receiver := station(t, srv, 1), station(t, srv, 2)
	const sent = 14
	for i := 0; i < sent; i++ {
		if _, err := sender.TriggerDENM(collisionReq()); err != nil {
			t.Fatal(err)
		}
	}
	if got := receiver.dropped.Value(); got != sent-4 {
		t.Fatalf("dropped %d, want %d", got, sent-4)
	}

	type span struct {
		Trace  uint64 `json:"trace"`
		Parent uint64 `json:"parent"`
		Name   string `json:"name"`
		Ended  bool   `json:"ended"`
		Attrs  []struct {
			Key   string `json:"key"`
			Value string `json:"value"`
		} `json:"attrs"`
	}
	type page struct {
		Total  uint64 `json:"total"`
		Traces []struct {
			Spans []span `json:"spans"`
		} `json:"traces"`
	}
	attr := func(s span, key string) string {
		for _, a := range s.Attrs {
			if a.Key == key {
				return a.Value
			}
		}
		return ""
	}
	// checkTraces requires one rx_frame → mailbox trace per sequence
	// number in want, in that order, with both spans ended.
	checkTraces := func(p page, want []int, reason string) {
		t.Helper()
		if len(p.Traces) != len(want) {
			t.Fatalf("/trace holds %d traces, want %d", len(p.Traces), len(want))
		}
		for i, tr := range p.Traces {
			if len(tr.Spans) != 2 {
				t.Fatalf("trace %d has %d spans, want 2", i, len(tr.Spans))
			}
			rx, mb := tr.Spans[0], tr.Spans[1]
			if rx.Name != "openc2x.rx_frame" || mb.Name != "openc2x.mailbox" || mb.Parent != rx.Trace || mb.Trace != rx.Trace {
				t.Fatalf("trace %d is %+v, want rx_frame then its mailbox child", i, tr.Spans)
			}
			if !rx.Ended || !mb.Ended {
				t.Fatalf("trace %d left a span open: %+v", i, tr.Spans)
			}
			if got, w := attr(rx, "action_id"), fmt.Sprintf("1:%d", want[i]); got != w {
				t.Fatalf("trace %d action_id %q, want %q", i, got, w)
			}
			if got := attr(mb, "drop_reason"); got != reason {
				t.Fatalf("trace %d drop_reason %q, want %q", i, got, reason)
			}
		}
	}
	var evicted page
	getJSON(t, srv, "/stations/2/trace", &evicted)
	checkTraces(evicted, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, "mailbox_full")

	resp, body := postJSON(t, "http://"+srv.Addr()+"/stations/2/request_denm", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poll status %d", resp.StatusCode)
	}
	var batch []DENMSummary
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch) != 4 {
		t.Fatalf("poll returned %d DENMs, want 4", len(batch))
	}
	for i, d := range batch {
		if want := uint16(sent - 4 + i + 1); d.SequenceNumber != want {
			t.Fatalf("batch[%d] seq %d, want %d (oldest first)", i, d.SequenceNumber, want)
		}
	}
	var all page
	getJSON(t, srv, "/stations/2/trace", &all)
	if all.Total != sent {
		t.Fatalf("/trace total %d, want %d", all.Total, sent)
	}
	all.Traces = all.Traces[sent-4:]
	checkTraces(all, []int{11, 12, 13, 14}, "")

	resp, body = postJSON(t, "http://"+srv.Addr()+"/stations/2/request_denm", "")
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "[]" {
		t.Fatalf("empty poll answered %d %q, want 200 []", resp.StatusCode, body)
	}
	if pending(receiver) != 0 {
		t.Fatalf("mailbox depth %d after poll, want 0", pending(receiver))
	}
}

// TestRealNodeMailboxConcurrentPolls polls a small mailbox while
// another goroutine triggers into it: every DENM is polled, pending
// or evicted exactly once, and polls return sequence numbers in
// increasing order.
func TestRealNodeMailboxConcurrentPolls(t *testing.T) {
	srv := newMux(t, 2, MuxConfig{MailboxCap: 8})
	sender, receiver := station(t, srv, 1), station(t, srv, 2)
	const sent = 300
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < sent; i++ {
			if _, err := sender.TriggerDENM(collisionReq()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var polled []uint16
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		for _, rd := range receiver.RequestDENM() {
			polled = append(polled, rd.DENM.Management.ActionID.SequenceNumber)
		}
	}
	for i := 1; i < len(polled); i++ {
		if polled[i] <= polled[i-1] {
			t.Fatalf("poll order broken at %d: %d after %d", i, polled[i], polled[i-1])
		}
	}
	if got := len(polled) + pending(receiver) + int(receiver.dropped.Value()); got != sent {
		t.Fatalf("polled %d + pending %d + dropped %d = %d, want %d",
			len(polled), pending(receiver), receiver.dropped.Value(), got, sent)
	}
}

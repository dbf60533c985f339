package openc2x

import (
	"testing"
	"time"

	"itsbed/internal/geo"
)

// TestRealNodeMailboxBounded is the bounded-mailbox regression: with
// MailboxCap set, a burst beyond the cap evicts oldest-first, counts
// the drops, and records them in the black box — memory stays bounded
// no matter how long the client forgets to poll.
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
	if !waitFor(t, time.Second, func() bool { return receiver.MailboxDropped() == sent-4 }) {
		t.Fatalf("dropped %d, want %d", receiver.MailboxDropped(), sent-4)
	}
	if depth := receiver.PendingDENMs(); depth != 4 {
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
	if !waitFor(t, 2*time.Second, func() bool { return receiver.PendingDENMs() == sent }) {
		t.Fatalf("mailbox depth %d, want %d (unbounded)", receiver.PendingDENMs(), sent)
	}
	if receiver.MailboxDropped() != 0 {
		t.Fatalf("dropped %d, want 0", receiver.MailboxDropped())
	}
}

// TestSimNodeMailboxBounded mirrors the regression on the simulation
// node: with MailboxCap set the oldest DENMs are evicted; with the
// default zero cap behaviour is unchanged (campaign goldens depend on
// that).
func TestSimNodeMailboxBounded(t *testing.T) {
	k, rsu, obu := simPair(t)
	obu.MailboxCap = 3

	const sent = 7
	for i := 0; i < sent; i++ {
		rsu.TriggerDENM(collisionReq(), nil)
	}
	if err := k.Run(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if obu.PendingDENMs() != 3 {
		t.Fatalf("mailbox depth %d, want cap 3", obu.PendingDENMs())
	}
	if obu.MailboxDropped != sent-3 {
		t.Fatalf("dropped %d, want %d", obu.MailboxDropped, sent-3)
	}
	var batch []ReceivedDENM
	obu.RequestDENM(func(b []ReceivedDENM) { batch = b })
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
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
	k, rsu, obu := simPair(t)
	const sent = 5
	for i := 0; i < sent; i++ {
		rsu.TriggerDENM(collisionReq(), nil)
	}
	if err := k.Run(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if obu.PendingDENMs() != sent || obu.MailboxDropped != 0 {
		t.Fatalf("depth %d dropped %d, want %d/0", obu.PendingDENMs(), obu.MailboxDropped, sent)
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
	if !waitFor(t, 2*time.Second, func() bool { return receiver.PendingDENMs() > 0 }) {
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

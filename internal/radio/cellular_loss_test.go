package radio

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"itsbed/internal/sim"
)

// uuSender attaches a sending endpoint plus one receiving endpoint per
// callback to the link, and returns the sender.
func uuSender(t *testing.T, link *CellularLink, receivers ...func(*Frame)) *UuEndpoint {
	t.Helper()
	tx, err := link.AttachUu("tx")
	if err != nil {
		t.Fatal(err)
	}
	for i, fn := range receivers {
		rx, err := link.AttachUu(fmt.Sprintf("rx%d", i))
		if err != nil {
			t.Fatal(err)
		}
		rx.SetReceiver(fn)
	}
	return tx
}

// TestCellularLossSampledPerMessage pins the documented loss semantics:
// loss is a per-message event, so with several receiving endpoints a
// message either reaches all of them or none. The old per-receiver sampling
// would split deliveries at 50% loss with overwhelming probability.
func TestCellularLossSampledPerMessage(t *testing.T) {
	k := sim.NewKernel(9)
	link := NewCellularLink(k, CellularProfile{
		Name:            "half",
		BaseLatency:     time.Millisecond,
		JitterMean:      time.Millisecond,
		LossProbability: 0.5,
	})
	const n = 200
	gotA := make(map[byte]bool)
	gotB := make(map[byte]bool)
	tx := uuSender(t, link,
		func(f *Frame) { gotA[f.Bytes[0]] = true },
		func(f *Frame) { gotB[f.Bytes[0]] = true })
	for i := 0; i < n; i++ {
		if err := tx.SendBroadcast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	k.Run(time.Minute)
	if len(gotA) != len(gotB) {
		t.Fatalf("subscribers diverged: %d vs %d deliveries", len(gotA), len(gotB))
	}
	for id := range gotA {
		if !gotB[id] {
			t.Fatalf("message %d reached one subscriber but not the other", id)
		}
	}
	if len(gotA) == 0 || len(gotA) == n {
		t.Fatalf("delivered %d/%d at 50%% loss", len(gotA), n)
	}
}

// TestCellularCountersConsistent checks the counters' invariant under
// the per-message law: sent = lost + delivered-per-receiver, and lost
// never exceeds sent.
func TestCellularCountersConsistent(t *testing.T) {
	k := sim.NewKernel(11)
	link := NewCellularLink(k, CellularProfile{
		Name:            "lossy",
		BaseLatency:     time.Millisecond,
		LossProbability: 0.3,
	})
	var a, b int
	tx := uuSender(t, link, func(*Frame) { a++ }, func(*Frame) { b++ })
	const n = 500
	for i := 0; i < n; i++ {
		if err := tx.SendBroadcast([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	k.Run(time.Minute)
	if link.MessagesSent != n {
		t.Fatalf("sent %d, want %d", link.MessagesSent, n)
	}
	if link.MessagesLost > link.MessagesSent {
		t.Fatalf("lost %d exceeds sent %d", link.MessagesLost, link.MessagesSent)
	}
	if a != b {
		t.Fatalf("subscribers diverged: %d vs %d", a, b)
	}
	if uint64(a)+link.MessagesLost != n {
		t.Fatalf("delivered %d + lost %d != sent %d", a, link.MessagesLost, n)
	}
}

// TestCellularLatencyLossLawPinned freezes the RNG draw order of the
// Uu path under a seeded kernel: one loss draw per message, one
// uplink-leg jitter draw per surviving message, then one downlink-leg
// draw per receiver. Any change to the sampling law moves these exact
// values.
func TestCellularLatencyLossLawPinned(t *testing.T) {
	k := sim.NewKernel(42)
	link := NewCellularLink(k, CellularProfile{
		Name:            "pinned",
		BaseLatency:     5 * time.Millisecond,
		JitterMean:      3 * time.Millisecond,
		LossProbability: 0.2,
	})
	var deliveries int
	var total time.Duration
	sent := make(map[int]time.Duration)
	tx := uuSender(t, link, func(f *Frame) {
		deliveries++
		total += k.Now() - sent[int(f.Bytes[0])]
	})
	const n = 50
	for i := 0; i < n; i++ {
		i := i
		k.ScheduleFn(time.Duration(i)*10*time.Millisecond, func() {
			sent[i] = k.Now()
			_ = tx.SendBroadcast([]byte{byte(i)})
		})
	}
	k.Run(time.Minute)
	if link.MessagesSent != n {
		t.Fatalf("sent %d", link.MessagesSent)
	}
	// Pinned under kernel seed 42: 11 of 50 messages lost.
	if link.MessagesLost != 11 {
		t.Fatalf("lost %d, want 11 (loss law changed)", link.MessagesLost)
	}
	if deliveries != n-11 {
		t.Fatalf("delivered %d, want %d", deliveries, n-11)
	}
	// Every delay is two legs of base/2 + Exp(jitter/2) ≥ base; the
	// mean sits near base + jitter.
	mean := total / time.Duration(deliveries)
	if mean < 5*time.Millisecond || mean > 12*time.Millisecond {
		t.Fatalf("mean latency %v outside the profile's law", mean)
	}
}

// TestUuUplinksOvertake pins that every uplink event hands its own
// message to the base station when a later message's uplink leg is
// shorter: each frame arrives at its own uplink plus downlink delay,
// the downlink delays drawn in base-station arrival order.
func TestUuUplinksOvertake(t *testing.T) {
	const n = 8
	newLink := func() (*sim.Kernel, *CellularLink) {
		k := sim.NewKernel(3)
		return k, NewCellularLink(k, Profile5GURLLC())
	}
	// The same leg-delay stream, drawn in the order the link draws it.
	_, ref := newLink()
	up := make([]time.Duration, n)
	order := make([]int, n)
	for i := range up {
		up[i] = ref.legDelay()
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return up[order[a]] < up[order[b]] })
	if sort.IntsAreSorted(order) {
		t.Fatal("no uplink overtakes another; pick a seed where one does")
	}
	want := make([]time.Duration, n)
	for _, i := range order {
		want[i] = up[i] + ref.legDelay()
	}

	k, l := newLink()
	got := make([]time.Duration, n)
	tx := uuSender(t, l, func(f *Frame) { got[f.Bytes[0]] = k.Now() })
	for i := 0; i < n; i++ {
		if err := tx.SendBroadcast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	k.Run(time.Second)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("frame %d delivered at %v, want %v (uplink %v)", i, got[i], want[i], up[i])
		}
	}
}

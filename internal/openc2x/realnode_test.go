package openc2x

import (
	"sync"
	"testing"

	"itsbed/internal/geo"
	"itsbed/internal/stack"
	"itsbed/internal/units"
)

// frameLog is a DatagramLink that keeps every frame sent.
type frameLog struct {
	mu     sync.Mutex
	frames [][]byte
}

func (l *frameLog) SendBroadcast(frame []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.frames = append(l.frames, frame)
	return nil
}

// TestTriggerDENMConcurrentSequence triggers from four goroutines on
// one station: every frame's GN sequence number must be its DENM's
// ActionID sequence, and no sequence repeats. Under -race it also pins
// that the GN header reads no node state outside the lock.
func TestTriggerDENMConcurrentSequence(t *testing.T) {
	link := &frameLog{}
	node, err := NewRealNode(RealNodeConfig{
		StationID:   7,
		StationType: units.StationTypeRoadSideUnit,
		Position:    geo.CISTERLab,
		Link:        link,
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers, each = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := node.TriggerDENM(collisionReq()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(link.frames) != workers*each {
		t.Fatalf("sent %d frames, want %d", len(link.frames), workers*each)
	}
	seen := make(map[uint16]bool)
	for i, frame := range link.frames {
		rx := stack.ParseFrame(frame)
		rx.Decode()
		if rx.Err != nil || rx.DENM == nil {
			t.Fatalf("frame %d: no DENM (%v)", i, rx.Err)
		}
		seq := rx.DENM.Management.ActionID.SequenceNumber
		if rx.Packet.SequenceNumber != seq {
			t.Fatalf("frame %d: GN sequence %d, DENM sequence %d", i, rx.Packet.SequenceNumber, seq)
		}
		if seen[seq] {
			t.Fatalf("frame %d: sequence %d sent twice", i, seq)
		}
		seen[seq] = true
	}
}

package ldm

import (
	"sync"
	"testing"
	"time"

	"itsbed/internal/geo"
	"itsbed/internal/units"
)

func newTestSharded(t *testing.T, n int) *Sharded {
	t.Helper()
	frame, err := geo.NewFrame(geo.CISTERLab)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Duration(0)
	return NewSharded(n, Config{
		Frame: frame,
		Now:   func() time.Duration { return now },
	})
}

func TestShardedRoutesByOriginator(t *testing.T) {
	s := newTestSharded(t, 4)
	// Stations 1..8 land on shards 1,2,3,0,1,2,3,0 — every shard holds
	// exactly two objects.
	for id := units.StationID(1); id <= 8; id++ {
		s.IngestCAM(testCAM(id, geo.CISTERLab, 1.0))
	}
	objs, _ := s.Counts()
	if objs != 8 {
		t.Fatalf("objects %d, want 8", objs)
	}
	for i, sc := range s.ShardCounts() {
		if sc[0] != 2 {
			t.Fatalf("shard %d holds %d objects, want 2", i, sc[0])
		}
	}
	s.IngestDENM(testDENM(5, 1, 10))
	_, events := s.Counts()
	if events != 1 {
		t.Fatalf("events %d, want 1", events)
	}
}

// TestShardedConcurrentIngest hammers every shard from many goroutines
// while readers poll Counts/ShardCounts — run under -race this is the
// daemon hot path (hundreds of hosted stations ingesting concurrently
// with HTTP /ldm reads).
func TestShardedConcurrentIngest(t *testing.T) {
	s := newTestSharded(t, 8)
	const writers = 16
	const perWriter = 50

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.Counts()
					s.ShardCounts()
				}
			}
		}()
	}
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				id := units.StationID(1 + w*perWriter + i)
				s.IngestCAM(testCAM(id, geo.CISTERLab, 1.0))
				s.IngestDENM(testDENM(id, uint16(i+1), 60))
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()

	objs, events := s.Counts()
	if want := writers * perWriter; objs != want || events != want {
		t.Fatalf("objects %d events %d, want %d each", objs, events, want)
	}
	// Per-shard totals must sum to the global count — no lost updates.
	sum := 0
	for _, sc := range s.ShardCounts() {
		sum += sc[0]
	}
	if sum != objs {
		t.Fatalf("shard sum %d != total %d", sum, objs)
	}
}

func TestShardedDefaultShardCount(t *testing.T) {
	s := newTestSharded(t, 0)
	if len(s.shards) != DefaultShards {
		t.Fatalf("shards %d, want %d", len(s.shards), DefaultShards)
	}
}

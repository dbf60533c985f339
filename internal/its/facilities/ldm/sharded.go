package ldm

import (
	"sync"
	"time"

	"itsbed/internal/its/messages"
)

// Sharded is a lock-sharded LDM for the wall-clock daemons: the plain
// Map is single-threaded by design (the simulation serialises access
// on kernel events), but a multiplexed daemon ingests CAMs from
// hundreds of hosted stations concurrently with HTTP reads. Sharding
// by originating station spreads that contention across independent
// locks while keeping each shard an ordinary Map. Each shard expires
// its stale objects and events itself: an ingest sweeps the shard it
// lands in when sweepEvery of its Config.Now has passed since that
// shard's last sweep, so a long-running daemon's map stays bounded by
// what is live.
type Sharded struct {
	shards []shard
}

type shard struct {
	mu sync.Mutex
	m  *Map
	// swept is the Now reading of the shard's last sweep.
	swept time.Duration
}

// sweepEvery is the least Now time between two sweeps of one shard.
const sweepEvery = time.Second

// sweep runs Map.GC when sweepEvery has passed since the last sweep.
// The caller holds sh.mu.
func (sh *shard) sweep() {
	if now := sh.m.cfg.Now(); now-sh.swept >= sweepEvery {
		sh.m.GC()
		sh.swept = now
	}
}

// DefaultShards is the shard count when NewSharded is given zero.
const DefaultShards = 16

// NewSharded builds a sharded LDM of n shards (zero selects
// DefaultShards), each configured with cfg. Flight hooks are shared
// verbatim; pass a zero Hook to keep the daemons' high-rate CAM churn
// out of the black box.
func NewSharded(n int, cfg Config) *Sharded {
	if n <= 0 {
		n = DefaultShards
	}
	s := &Sharded{shards: make([]shard, n)}
	for i := range s.shards {
		s.shards[i].m = New(cfg)
	}
	return s
}

// shardFor maps an originating station to its shard.
func (s *Sharded) shardFor(station uint32) *shard {
	return &s.shards[station%uint32(len(s.shards))]
}

// IngestCAM routes a received CAM to the originator's shard.
func (s *Sharded) IngestCAM(c *messages.CAM) {
	sh := s.shardFor(uint32(c.Header.StationID))
	sh.mu.Lock()
	sh.sweep()
	sh.m.IngestCAM(c)
	sh.mu.Unlock()
}

// IngestDENM routes a received DENM to its originator's shard.
func (s *Sharded) IngestDENM(d *messages.DENM) {
	sh := s.shardFor(uint32(d.Management.ActionID.OriginatingStationID))
	sh.mu.Lock()
	sh.sweep()
	sh.m.IngestDENM(d)
	sh.mu.Unlock()
}

// Counts sums live objects and events across every shard.
func (s *Sharded) Counts() (objects, events int) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		o, e := sh.m.Counts()
		sh.mu.Unlock()
		objects += o
		events += e
	}
	return objects, events
}

// ShardCounts reports per-shard (objects, events) pairs — the /ldm
// endpoint's view of how evenly station traffic spreads.
func (s *Sharded) ShardCounts() [][2]int {
	out := make([][2]int, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		o, e := sh.m.Counts()
		sh.mu.Unlock()
		out[i] = [2]int{o, e}
	}
	return out
}

package geonet

import (
	"time"
)

// LocationTableEntry is one neighbour known to the GN router.
type LocationTableEntry struct {
	Position LongPositionVector
	// LastSeen is virtual time of the last packet from this neighbour.
	LastSeen time.Duration
	// PacketCount counts packets received from this neighbour.
	PacketCount uint64
}

// LocationTable tracks neighbours and performs duplicate-packet
// detection keyed on (source address, sequence number). Entries expire
// after the configured lifetime.
type LocationTable struct {
	lifetime time.Duration
	entries  map[Address]*LocationTableEntry
	// slots backs the entries: a table that learns n neighbours
	// allocates a few chunks, not n objects.
	slots slab[LocationTableEntry]
	// dup maps source MAC + sequence number to the time the duplicate
	// record expires.
	dup map[dupKey]time.Duration
}

type dupKey struct {
	mac [6]byte
	seq uint16
}

// DefaultEntryLifetime is the GN location table entry lifetime (20 s).
const DefaultEntryLifetime = 20 * time.Second

// NewLocationTable returns a table whose entries expire after
// lifetime; zero selects the standard default.
func NewLocationTable(lifetime time.Duration) *LocationTable {
	if lifetime <= 0 {
		lifetime = DefaultEntryLifetime
	}
	return &LocationTable{
		lifetime: lifetime,
		entries:  make(map[Address]*LocationTableEntry),
		dup:      make(map[dupKey]time.Duration),
	}
}

// Update records a packet from the given source position vector at
// virtual time now.
func (t *LocationTable) Update(src LongPositionVector, now time.Duration) {
	e, ok := t.entries[src.Address]
	if !ok {
		e = t.slots.get()
		t.entries[src.Address] = e
	}
	e.Position = src
	e.LastSeen = now
	e.PacketCount++
}

// IsDuplicate records the (source, sequence) pair of a GBC packet and
// reports whether it was already seen within the packet lifetime.
func (t *LocationTable) IsDuplicate(src Address, seq uint16, lifetime, now time.Duration) bool {
	k := dupKey{mac: src.MAC, seq: seq}
	if exp, ok := t.dup[k]; ok && now < exp {
		return true
	}
	t.dup[k] = now + lifetime
	return false
}

// GC drops expired entries and duplicate records. Call periodically.
func (t *LocationTable) GC(now time.Duration) {
	for a, e := range t.entries {
		if now-e.LastSeen > t.lifetime {
			delete(t.entries, a)
			t.slots.put(e)
		}
	}
	for k, exp := range t.dup {
		if now >= exp {
			delete(t.dup, k)
		}
	}
}

// slab hands out zeroed *T from chunks that start at minSlabChunk
// values and double up to maxSlabChunk, and reuses the values put back
// first. No pointer it hands out may outlive its put. The LDM keeps
// an identical slab for its objects and events.
type slab[T any] struct {
	chunk []T // the current chunk's values not handed out yet
	last  int // size of the last chunk made
	free  []*T
}

const (
	minSlabChunk = 4
	maxSlabChunk = 64
)

// get returns a zeroed value.
func (s *slab[T]) get() *T {
	if n := len(s.free); n > 0 {
		v := s.free[n-1]
		s.free = s.free[:n-1]
		return v
	}
	if len(s.chunk) == 0 {
		s.last = min(max(2*s.last, minSlabChunk), maxSlabChunk)
		s.chunk = make([]T, s.last)
	}
	v := &s.chunk[0]
	s.chunk = s.chunk[1:]
	return v
}

// put zeroes v and keeps it for the next get.
func (s *slab[T]) put(v *T) {
	var zero T
	*v = zero
	s.free = append(s.free, v)
}

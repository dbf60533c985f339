package geonet

import (
	"time"
)

// LocationTable is the GN router's duplicate-packet filter, keyed on
// (source address, sequence number): the part of the EN 302 636-4-1
// location table that GBC reception reads. Records expire after their
// packet lifetime.
type LocationTable struct {
	// dup maps source MAC + sequence number to the time the duplicate
	// record expires.
	dup map[dupKey]time.Duration
}

type dupKey struct {
	mac [6]byte
	seq uint16
}

// NewLocationTable returns an empty duplicate filter.
func NewLocationTable() *LocationTable {
	return &LocationTable{dup: make(map[dupKey]time.Duration)}
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

// GC drops expired duplicate records. Call periodically.
func (t *LocationTable) GC(now time.Duration) {
	for k, exp := range t.dup {
		if now >= exp {
			delete(t.dup, k)
		}
	}
}

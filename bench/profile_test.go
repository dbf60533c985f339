package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
)

var sink [][]byte

//go:noinline
func allocateForProfileTest(n int) {
	for i := 0; i < n; i++ {
		sink = append(sink, make([]byte, 64))
	}
}

// TestParseProfileRoundTrip decodes an allocation profile written by
// runtime/pprof and finds the allocations a known function made.
func TestParseProfileRoundTrip(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	const n = 1000
	allocateForProfileTest(n)
	sink = nil
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	vi, err := p.valueIndex("alloc_objects")
	if err != nil {
		t.Fatal(err)
	}
	var objs int64
	for _, s := range p.Samples {
		if len(s.Values) != len(p.SampleTypes) {
			t.Fatalf("sample has %d values for %d types", len(s.Values), len(p.SampleTypes))
		}
		if len(s.Stack) > 0 && strings.HasSuffix(s.Stack[0], ".allocateForProfileTest") {
			objs += s.Values[vi]
		}
	}
	if objs < n {
		t.Errorf("found %d objects allocated by allocateForProfileTest, want at least %d", objs, n)
	}
	if _, err := p.byLayer("no_such_type"); err == nil {
		t.Error("byLayer accepted an unknown sample type")
	}
}

func TestParseProfileRejectsTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil || len(p.Samples) == 0 {
		t.Fatalf("goroutine profile: %v, %d samples", err, len(p.Samples))
	}
	// A protobuf cut inside a length-delimited field.
	if _, err := parseProfile([]byte{0x12, 0x05, 0x08}); err == nil {
		t.Error("parsed a truncated profile")
	}
}

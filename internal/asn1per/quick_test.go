package asn1per

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// quickCfg keeps the property tests deterministic across runs.
func quickCfg(seed int64) *quick.Config {
	return &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(seed))}
}

// TestPropertyWriteBitsReadBits: for any value and width, WriteBits
// followed by ReadBits of the same width returns the low `width` bits.
// This pins the chunked fast paths against the bit-by-bit definition.
func TestPropertyWriteBitsReadBits(t *testing.T) {
	f := func(v uint64, width uint8, leadBits uint8) bool {
		n := int(width % 65)       // 0..64
		lead := int(leadBits % 13) // misalign the stream 0..12 bits
		var w Writer
		for i := 0; i < lead; i++ {
			w.WriteBit(i%2 == 1)
		}
		w.WriteBits(v, n)
		var r Reader
		r.Reset(w.Bytes())
		if _, err := r.ReadBits(lead); err != nil {
			return false
		}
		got, err := r.ReadBits(n)
		if err != nil {
			return false
		}
		want := v
		if n < 64 {
			want &= 1<<uint(n) - 1
		}
		return got == want
	}
	if err := quick.Check(f, quickCfg(11)); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyWriteBitsMatchesWriteBit: the chunked WriteBits emits the
// exact same stream as the per-bit reference implementation.
func TestPropertyWriteBitsMatchesWriteBit(t *testing.T) {
	f := func(vals [4]uint64, widths [4]uint8) bool {
		var fast, ref Writer
		for i, v := range vals {
			n := int(widths[i] % 65)
			fast.WriteBits(v, n)
			for b := n - 1; b >= 0; b-- {
				ref.WriteBit(v>>uint(b)&1 == 1)
			}
		}
		return bytes.Equal(fast.Bytes(), ref.Bytes()) && bitLen(fast) == bitLen(ref)
	}
	if err := quick.Check(f, quickCfg(12)); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyConstrainedIntRoundTrip: encode∘decode = id for arbitrary
// (lo, hi, v) with lo ≤ v ≤ hi, at arbitrary bit offsets.
func TestPropertyConstrainedIntRoundTrip(t *testing.T) {
	f := func(a, b int64, pick uint64, leadBits uint8) bool {
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		// Keep the range within what uint64 arithmetic supports.
		if uint64(hi-lo) == 1<<64-1 {
			hi--
		}
		rng := uint64(hi-lo) + 1
		v := lo + int64(pick%rng)
		lead := int(leadBits % 9)
		var w Writer
		for i := 0; i < lead; i++ {
			w.WriteBit(true)
		}
		if err := w.WriteConstrainedInt(v, lo, hi); err != nil {
			return false
		}
		var r Reader
		r.Reset(w.Bytes())
		if _, err := r.ReadBits(lead); err != nil {
			return false
		}
		got, err := r.ReadConstrainedInt(lo, hi)
		return err == nil && got == v
	}
	if err := quick.Check(f, quickCfg(13)); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPooledWriterReuse: round-trips stay the identity across
// pooled-writer reuse boundaries — a Writer that previously encoded a
// longer stream must not leak stale bytes or bit state into the next
// encode after Reset.
func TestPropertyPooledWriterReuse(t *testing.T) {
	f := func(first, second []byte, oddBits uint8) bool {
		if len(first) > 512 {
			first = first[:512]
		}
		if len(second) > 512 {
			second = second[:512]
		}
		w := GetWriter()
		defer PutWriter(w)
		// First use: arbitrary payload plus a partial trailing byte so
		// reuse starts from a mid-byte bit state.
		if err := writeOctets(w, first, 0, -1); err != nil {
			return false
		}
		w.WriteBits(uint64(oddBits), int(oddBits%7))
		_ = w.Bytes()
		// Reuse after reset must be indistinguishable from a fresh Writer.
		w.Reset()
		if err := writeOctets(w, second, 0, -1); err != nil {
			return false
		}
		reused := w.Bytes()
		var fresh Writer
		if err := writeOctets(&fresh, second, 0, -1); err != nil {
			return false
		}
		if !bytes.Equal(reused, fresh.Bytes()) {
			return false
		}
		var r Reader
		r.Reset(reused)
		got, err := readOctets(&r, 0, -1)
		return err == nil && bytes.Equal(got, second)
	}
	if err := quick.Check(f, quickCfg(15)); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyReaderReset: a Reader reused via Reset decodes exactly
// like a fresh one, even after being left mid-stream.
func TestPropertyReaderReset(t *testing.T) {
	f := func(a, b []byte, stopBits uint8) bool {
		var wa, wb Writer
		if err := writeOctets(&wa, a, 0, -1); err != nil {
			return false
		}
		if err := writeOctets(&wb, b, 0, -1); err != nil {
			return false
		}
		var r Reader
		r.Reset(wa.Bytes())
		// Abandon the first stream part-way through.
		_, _ = r.ReadBits(int(stopBits % 16))
		r.Reset(wb.Bytes())
		got, err := readOctets(&r, 0, -1)
		return err == nil && bytes.Equal(got, b)
	}
	if err := quick.Check(f, quickCfg(16)); err != nil {
		t.Fatal(err)
	}
}

// TestWriterResetKeepsCapacity documents the point of pooling: after a
// large encode, Reset retains the grown buffer for the next message.
func TestWriterResetKeepsCapacity(t *testing.T) {
	var w Writer
	if err := writeOctets(&w, make([]byte, 1024), 0, -1); err != nil {
		t.Fatal(err)
	}
	w.Reset()
	if bitLen(w) != 0 || len(w.buf) != 0 {
		t.Fatalf("reset writer not empty: %d bits, %d bytes", bitLen(w), len(w.buf))
	}
	allocs := testing.AllocsPerRun(100, func() {
		w.Reset()
		_ = writeOctets(&w, make([]byte, 64), 0, -1)
	})
	// The only allocation allowed is the 64-byte test payload itself.
	if allocs > 1 {
		t.Fatalf("reused writer allocated %.1f times per encode", allocs)
	}
}

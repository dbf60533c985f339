// Package asn1per implements the subset of ASN.1 Unaligned Packed
// Encoding Rules (UPER, ITU-T X.691) needed to serialise ETSI ITS
// messages: constrained whole numbers, booleans, enumerations,
// fixed-size bit strings, length determinants, the optional/default
// presence bitmap of SEQUENCE, and SEQUENCE OF with constrained counts.
//
// The encoder and decoder are symmetric: every Write* method on Writer
// but WriteBitString has a matching Read* method on Reader (a
// fixed-size bit string reads back with ReadBits), and round-tripping
// any value through the pair is the identity (verified by property
// tests).
package asn1per

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// ErrRange indicates a value outside its PER constraint.
var ErrRange = errors.New("asn1per: value out of constrained range")

// Writer accumulates a UPER bit stream most-significant-bit first.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	nbit int // bits used in the last byte, 0..7 (0 means byte-aligned)
}

// Reset discards the accumulated stream but keeps the underlying
// buffer, so a reused Writer encodes without reallocating.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// writerPool recycles Writers across encodes. The ITS facilities emit
// CAMs every 100 ms and DENM repetitions every few tens of ms per
// station; without pooling each message grows a fresh buffer.
var writerPool = sync.Pool{New: func() any { return new(Writer) }}

// GetWriter returns a reset Writer from the package pool. Release it
// with PutWriter once the encoded bytes have been copied out (Bytes
// copies, so releasing after Bytes is safe).
func GetWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.Reset()
	return w
}

// PutWriter returns a Writer obtained from GetWriter to the pool.
func PutWriter(w *Writer) {
	if w != nil {
		writerPool.Put(w)
	}
}

// Bytes returns the encoded stream. Per X.691 the final partial byte is
// zero-padded. The returned slice aliases the writer's buffer; the
// caller must not keep writing and using a previously returned slice.
func (w *Writer) Bytes() []byte {
	if len(w.buf) == 0 {
		// An empty PER encoding is one zero octet per X.691 §10.1.3
		// when carried; callers that need that behaviour handle it at
		// the message layer. Here we return an empty slice.
		return []byte{}
	}
	out := make([]byte, len(w.buf))
	copy(out, w.buf)
	return out
}

// WriteBit appends one bit.
func (w *Writer) WriteBit(b bool) {
	if w.nbit == 0 {
		w.buf = append(w.buf, 0)
		w.nbit = 8
	}
	if b {
		w.buf[len(w.buf)-1] |= 1 << (w.nbit - 1)
	}
	w.nbit--
	if w.nbit < 0 {
		w.nbit = 0
	}
}

// WriteBits appends the low n bits of v, most significant first.
// n must be within [0, 64]. Bits are packed a partial byte at a time
// rather than bit-by-bit.
func (w *Writer) WriteBits(v uint64, n int) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("asn1per: WriteBits width %d", n))
	}
	if n < 64 {
		v &= 1<<uint(n) - 1
	}
	for n > 0 {
		if w.nbit == 0 {
			w.buf = append(w.buf, 0)
			w.nbit = 8
		}
		take := w.nbit
		if take > n {
			take = n
		}
		chunk := byte(v >> uint(n-take)) // top `take` bits of the remaining value
		w.buf[len(w.buf)-1] |= chunk << uint(w.nbit-take)
		w.nbit -= take
		n -= take
	}
}

// WriteBool encodes a BOOLEAN (one bit).
func (w *Writer) WriteBool(b bool) { w.WriteBit(b) }

// bitWidth returns the minimum number of bits needed to represent the
// range size r (r >= 1) per X.691 §10.5.3.
func bitWidth(r uint64) int {
	if r <= 1 {
		return 0
	}
	return bits.Len64(r - 1)
}

// WriteConstrainedInt encodes an INTEGER (lo..hi) per X.691 §10.5.
// Values outside [lo, hi] return ErrRange.
func (w *Writer) WriteConstrainedInt(v, lo, hi int64) error {
	if v < lo || v > hi {
		return fmt.Errorf("%w: %d not in [%d,%d]", ErrRange, v, lo, hi)
	}
	r := uint64(hi-lo) + 1
	w.WriteBits(uint64(v-lo), bitWidth(r))
	return nil
}

// WriteEnumerated encodes an ENUMERATED with n root values (no
// extension marker handling here; use WriteBit for the marker first if
// the type is extensible).
func (w *Writer) WriteEnumerated(idx, n int) error {
	if idx < 0 || idx >= n {
		return fmt.Errorf("%w: enum index %d of %d", ErrRange, idx, n)
	}
	return w.WriteConstrainedInt(int64(idx), 0, int64(n-1))
}

// WriteLength encodes a length determinant. For a constrained length
// (lo..hi with hi >= 0) it writes a constrained integer. For an
// unconstrained/semi-constrained length (hi < 0) it uses the general
// form of X.691 §10.9 for values < 16384 (single- and two-octet forms;
// fragmentation is not needed for ITS message sizes and is rejected).
func (w *Writer) WriteLength(n, lo, hi int) error {
	if n < lo {
		return fmt.Errorf("%w: length %d below %d", ErrRange, n, lo)
	}
	if hi >= 0 {
		if n > hi {
			return fmt.Errorf("%w: length %d above %d", ErrRange, n, hi)
		}
		return w.WriteConstrainedInt(int64(n), int64(lo), int64(hi))
	}
	switch {
	case n < 128:
		w.WriteBit(false)
		w.WriteBits(uint64(n), 7)
	case n < 16384:
		w.WriteBit(true)
		w.WriteBit(false)
		w.WriteBits(uint64(n), 14)
	default:
		return fmt.Errorf("asn1per: length %d requires fragmentation (unsupported)", n)
	}
	return nil
}

// WriteBitString encodes a BIT STRING of exactly n bits from bs
// (most significant bit of bs[0] first) with a fixed-size constraint.
func (w *Writer) WriteBitString(bs []byte, n int) error {
	if n < 0 || (n+7)/8 > len(bs) {
		return fmt.Errorf("asn1per: bit string of %d bits needs %d bytes, have %d", n, (n+7)/8, len(bs))
	}
	for i := 0; i < n; i++ {
		w.WriteBit(bs[i/8]&(1<<(7-uint(i%8))) != 0)
	}
	return nil
}

package asn1per

import (
	"errors"
	"fmt"
)

// ErrTruncated indicates the bit stream ended before a complete value
// could be read.
var ErrTruncated = errors.New("asn1per: truncated stream")

// Reader consumes a UPER bit stream produced by Writer.
type Reader struct {
	buf []byte
	pos int // absolute bit position
}

// Reset points the reader at a new stream and rewinds it, allowing a
// stack-allocated or reused Reader.
func (r *Reader) Reset(buf []byte) {
	r.buf = buf
	r.pos = 0
}

// BitsRemaining reports how many bits are left.
func (r *Reader) BitsRemaining() int { return len(r.buf)*8 - r.pos }

// ReadBit consumes one bit.
func (r *Reader) ReadBit() (bool, error) {
	if r.pos >= len(r.buf)*8 {
		return false, ErrTruncated
	}
	b := r.buf[r.pos/8]&(1<<(7-uint(r.pos%8))) != 0
	r.pos++
	return b, nil
}

// ReadBits consumes n bits (n ≤ 64) most significant first. Bits are
// extracted a partial byte at a time rather than bit-by-bit.
func (r *Reader) ReadBits(n int) (uint64, error) {
	if n < 0 || n > 64 {
		return 0, fmt.Errorf("asn1per: ReadBits width %d", n)
	}
	if r.BitsRemaining() < n {
		return 0, ErrTruncated
	}
	var v uint64
	pos := r.pos
	for n > 0 {
		avail := 8 - pos%8
		take := avail
		if take > n {
			take = n
		}
		chunk := uint64(r.buf[pos/8]>>uint(avail-take)) & (1<<uint(take) - 1)
		v = v<<uint(take) | chunk
		pos += take
		n -= take
	}
	r.pos = pos
	return v, nil
}

// ReadBool decodes a BOOLEAN.
func (r *Reader) ReadBool() (bool, error) { return r.ReadBit() }

// ReadConstrainedInt decodes an INTEGER (lo..hi).
func (r *Reader) ReadConstrainedInt(lo, hi int64) (int64, error) {
	rng := uint64(hi-lo) + 1
	v, err := r.ReadBits(bitWidth(rng))
	if err != nil {
		return 0, err
	}
	out := lo + int64(v)
	if out > hi {
		return 0, fmt.Errorf("%w: decoded %d above %d", ErrRange, out, hi)
	}
	return out, nil
}

// ReadEnumerated decodes an ENUMERATED with n root values.
func (r *Reader) ReadEnumerated(n int) (int, error) {
	v, err := r.ReadConstrainedInt(0, int64(n-1))
	return int(v), err
}

// ReadLength decodes a length determinant written by WriteLength.
func (r *Reader) ReadLength(lo, hi int) (int, error) {
	if hi >= 0 {
		v, err := r.ReadConstrainedInt(int64(lo), int64(hi))
		return int(v), err
	}
	long, err := r.ReadBit()
	if err != nil {
		return 0, err
	}
	if !long {
		v, err := r.ReadBits(7)
		return int(v), err
	}
	frag, err := r.ReadBit()
	if err != nil {
		return 0, err
	}
	if frag {
		return 0, errors.New("asn1per: fragmented length (unsupported)")
	}
	v, err := r.ReadBits(14)
	return int(v), err
}

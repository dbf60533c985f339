package asn1per

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func newReader(buf []byte) *Reader { return &Reader{buf: buf} }

// writeOctets frames b as a length determinant (lo..hi; hi < 0 for
// unconstrained) followed by whole octets, for tests that need a
// variable-length field; readOctets reads it back.
func writeOctets(w *Writer, b []byte, lo, hi int) error {
	if err := w.WriteLength(len(b), lo, hi); err != nil {
		return err
	}
	for _, x := range b {
		w.WriteBits(uint64(x), 8)
	}
	return nil
}

func readOctets(r *Reader, lo, hi int) ([]byte, error) {
	n, err := r.ReadLength(lo, hi)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	for i := range out {
		b, err := r.ReadBits(8)
		if err != nil {
			return nil, err
		}
		out[i] = byte(b)
	}
	return out, nil
}

// bitLen is the exact number of bits w holds: nbit counts the free bits
// in its final byte.
func bitLen(w Writer) int {
	if len(w.buf) == 0 {
		return 0
	}
	return len(w.buf)*8 - w.nbit
}

func TestBitRoundTrip(t *testing.T) {
	var w Writer
	pattern := []bool{true, false, true, true, false, false, true, false, true}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	r := newReader(w.Bytes())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("bit %d = %v, want %v", i, got, want)
		}
	}
}

func TestBitLen(t *testing.T) {
	var w Writer
	if bitLen(w) != 0 {
		t.Fatal("fresh writer has bits")
	}
	w.WriteBits(0x5, 3)
	if bitLen(w) != 3 {
		t.Fatalf("BitLen=%d, want 3", bitLen(w))
	}
	w.WriteBits(0xff, 8)
	if bitLen(w) != 11 {
		t.Fatalf("BitLen=%d, want 11", bitLen(w))
	}
	if len(w.buf) != 2 {
		t.Fatalf("Len=%d, want 2", len(w.buf))
	}
}

func TestWriteBitsMSBFirst(t *testing.T) {
	var w Writer
	w.WriteBits(0b101, 3)
	got := w.Bytes()
	if got[0] != 0b10100000 {
		t.Fatalf("bytes=%08b, want 10100000", got[0])
	}
}

func TestConstrainedIntWidths(t *testing.T) {
	cases := []struct {
		v, lo, hi int64
		bits      int
	}{
		{0, 0, 0, 0},     // single value: zero bits
		{1, 0, 1, 1},     // boolean-sized
		{255, 0, 255, 8}, // octet
		{7, 0, 7, 3},
		{-5, -10, 10, 5}, // range 21 → 5 bits
	}
	for _, c := range cases {
		var w Writer
		if err := w.WriteConstrainedInt(c.v, c.lo, c.hi); err != nil {
			t.Fatal(err)
		}
		if bitLen(w) != c.bits {
			t.Fatalf("encode %d in [%d,%d]: %d bits, want %d", c.v, c.lo, c.hi, bitLen(w), c.bits)
		}
		r := newReader(w.Bytes())
		got, err := r.ReadConstrainedInt(c.lo, c.hi)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.v {
			t.Fatalf("round trip %d -> %d", c.v, got)
		}
	}
}

func TestConstrainedIntRangeError(t *testing.T) {
	var w Writer
	if err := w.WriteConstrainedInt(11, 0, 10); !errors.Is(err, ErrRange) {
		t.Fatalf("err=%v, want ErrRange", err)
	}
	if err := w.WriteConstrainedInt(-1, 0, 10); !errors.Is(err, ErrRange) {
		t.Fatalf("err=%v, want ErrRange", err)
	}
}

func TestConstrainedIntProperty(t *testing.T) {
	f := func(v int32, span uint16) bool {
		lo := int64(v)
		hi := lo + int64(span)
		val := lo + int64(span)/2
		var w Writer
		if err := w.WriteConstrainedInt(val, lo, hi); err != nil {
			return false
		}
		got, err := newReader(w.Bytes()).ReadConstrainedInt(lo, hi)
		return err == nil && got == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestEnumerated(t *testing.T) {
	var w Writer
	if err := w.WriteEnumerated(2, 4); err != nil {
		t.Fatal(err)
	}
	got, err := newReader(w.Bytes()).ReadEnumerated(4)
	if err != nil || got != 2 {
		t.Fatalf("got %d err %v", got, err)
	}
	if err := w.WriteEnumerated(4, 4); !errors.Is(err, ErrRange) {
		t.Fatal("out-of-range enum accepted")
	}
}

func TestLengthForms(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 5000, 16383} {
		var w Writer
		if err := w.WriteLength(n, 0, -1); err != nil {
			t.Fatal(err)
		}
		got, err := newReader(w.Bytes()).ReadLength(0, -1)
		if err != nil {
			t.Fatal(err)
		}
		if got != n {
			t.Fatalf("length %d -> %d", n, got)
		}
	}
}

func TestLengthFragmentationRejected(t *testing.T) {
	var w Writer
	if err := w.WriteLength(20000, 0, -1); err == nil {
		t.Fatal("fragmented length accepted")
	}
}

func TestConstrainedLength(t *testing.T) {
	var w Writer
	if err := w.WriteLength(3, 1, 7); err != nil {
		t.Fatal(err)
	}
	if bitLen(w) != 3 { // range 7 → 3 bits
		t.Fatalf("constrained length used %d bits", bitLen(w))
	}
	got, err := newReader(w.Bytes()).ReadLength(1, 7)
	if err != nil || got != 3 {
		t.Fatalf("got %d err %v", got, err)
	}
}

func TestBitString(t *testing.T) {
	bs := []byte{0b10110100, 0b11000000}
	var w Writer
	if err := w.WriteBitString(bs, 10); err != nil {
		t.Fatal(err)
	}
	if bitLen(w) != 10 {
		t.Fatalf("bit string used %d bits", bitLen(w))
	}
	if got := w.Bytes(); !bytes.Equal(got, bs) {
		t.Fatalf("got %08b, want %08b", got, bs)
	}
	got, err := newReader(w.Bytes()).ReadBits(10)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0b1011010011 {
		t.Fatalf("read back %010b", got)
	}
}

func TestBitStringTooShortBuffer(t *testing.T) {
	var w Writer
	if err := w.WriteBitString([]byte{0xff}, 10); err == nil {
		t.Fatal("accepted bit string longer than the buffer")
	}
}

func TestTruncatedReads(t *testing.T) {
	r := newReader([]byte{0xff})
	if _, err := r.ReadBits(16); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err=%v, want ErrTruncated", err)
	}
	r2 := newReader(nil)
	if _, err := r2.ReadBit(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err=%v, want ErrTruncated", err)
	}
	r3 := newReader([]byte{0x01})
	if _, err := readOctets(r3, 0, -1); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err=%v, want ErrTruncated", err)
	}
}

func TestMixedSequenceRoundTrip(t *testing.T) {
	// Emulates a small SEQUENCE: bitmap + ints + octets.
	var w Writer
	w.WriteBool(true)
	w.WriteBool(false)
	if err := w.WriteConstrainedInt(97, 0, 255); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteConstrainedInt(-44, -100, 100); err != nil {
		t.Fatal(err)
	}
	if err := writeOctets(&w, []byte("rsu"), 0, 15); err != nil {
		t.Fatal(err)
	}
	r := newReader(w.Bytes())
	b1, _ := r.ReadBool()
	b2, _ := r.ReadBool()
	v1, _ := r.ReadConstrainedInt(0, 255)
	v2, _ := r.ReadConstrainedInt(-100, 100)
	s, err := readOctets(r, 0, 15)
	if err != nil {
		t.Fatal(err)
	}
	if !b1 || b2 || v1 != 97 || v2 != -44 || string(s) != "rsu" {
		t.Fatalf("round trip mismatch: %v %v %d %d %q", b1, b2, v1, v2, s)
	}
}

func TestPropertyArbitraryFieldSequences(t *testing.T) {
	type field struct {
		v    int64
		lo   int64
		span uint16
	}
	f := func(raw []struct {
		V    int16
		Span uint16
	}) bool {
		var fields []field
		for _, r := range raw {
			lo := int64(r.V)
			span := r.Span
			fields = append(fields, field{v: lo + int64(span)/3, lo: lo, span: span})
		}
		var w Writer
		for _, fl := range fields {
			if err := w.WriteConstrainedInt(fl.v, fl.lo, fl.lo+int64(fl.span)); err != nil {
				return false
			}
		}
		r := newReader(w.Bytes())
		for _, fl := range fields {
			got, err := r.ReadConstrainedInt(fl.lo, fl.lo+int64(fl.span))
			if err != nil || got != fl.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestBytesReturnsCopy(t *testing.T) {
	var w Writer
	w.WriteBits(0xab, 8)
	b := w.Bytes()
	b[0] = 0
	if w.Bytes()[0] != 0xab {
		t.Fatal("Bytes aliases internal buffer")
	}
}

func TestEmptyWriterBytes(t *testing.T) {
	var w Writer
	if len(w.Bytes()) != 0 {
		t.Fatal("empty writer produced bytes")
	}
}

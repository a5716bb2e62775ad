package sim

import (
	"testing"
	"testing/quick"
)

func TestB64RoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 0xdeadbeef, ^uint64(0)} {
		if got := B64(v).Uint64(); got != v {
			t.Errorf("B64(%#x).Uint64() = %#x", v, got)
		}
	}
}

func TestBBool(t *testing.T) {
	if !BBool(true).Bool() {
		t.Error("BBool(true) should be non-zero")
	}
	if BBool(false).Bool() {
		t.Error("BBool(false) should be zero")
	}
}

func TestMaskTruncates(t *testing.T) {
	b := B64(0xff)
	if got := b.Mask(4).Uint64(); got != 0xf {
		t.Errorf("Mask(4) = %#x, want 0xf", got)
	}
	if got := b.Mask(8).Uint64(); got != 0xff {
		t.Errorf("Mask(8) = %#x, want 0xff", got)
	}
	if got := b.Mask(0); !got.IsZero() {
		t.Errorf("Mask(0) = %v, want zero", got)
	}
}

func TestMaskWide(t *testing.T) {
	b := BWords(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0))
	m := b.Mask(200)
	if m.Word(3) != (^uint64(0))>>(256-200) {
		t.Errorf("Mask(200) high word = %#x", m.Word(3))
	}
	if m.Word(0) != ^uint64(0) || m.Word(1) != ^uint64(0) || m.Word(2) != ^uint64(0) {
		t.Error("Mask(200) should keep low words intact")
	}
}

func TestBitAndSetBit(t *testing.T) {
	var b Bits
	b = b.SetBit(0, true).SetBit(63, true).SetBit(64, true).SetBit(255, true)
	for _, i := range []int{0, 63, 64, 255} {
		if !b.Bit(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if b.Bit(1) || b.Bit(128) {
		t.Error("unexpected bits set")
	}
	b = b.SetBit(63, false)
	if b.Bit(63) {
		t.Error("bit 63 should be cleared")
	}
}

func TestBinaryStringAndParse(t *testing.T) {
	b := B64(0b1011)
	if got := b.BinaryString(4); got != "1011" {
		t.Errorf("BinaryString(4) = %q", got)
	}
	if got := b.BinaryString(6); got != "001011" {
		t.Errorf("BinaryString(6) = %q", got)
	}
	p, err := ParseBinary("1011")
	if err != nil {
		t.Fatal(err)
	}
	if p.Uint64() != 0b1011 {
		t.Errorf("ParseBinary = %#x", p.Uint64())
	}
	if _, err := ParseBinary("10a1"); err == nil {
		t.Error("ParseBinary should reject bad digits")
	}
	if _, err := ParseBinary(""); err == nil {
		t.Error("ParseBinary should reject empty input")
	}
	// x/z digits collapse to zero.
	p, err = ParseBinary("1x0z")
	if err != nil {
		t.Fatal(err)
	}
	if p.Uint64() != 0b1000 {
		t.Errorf("ParseBinary(1x0z) = %#x, want 0b1000", p.Uint64())
	}
}

func TestBinaryStringParseRoundTripProperty(t *testing.T) {
	f := func(w0, w1, w2, w3 uint64, width uint8) bool {
		w := int(width)%MaxBitsWidth + 1
		b := BWords(w0, w1, w2, w3).Mask(w)
		p, err := ParseBinary(b.BinaryString(w))
		return err == nil && p.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXorSelfInverse(t *testing.T) {
	selfInverse := func(a0, a1, b0, b1 uint64) bool {
		a, b := BWords(a0, a1), BWords(b0, b1)
		return a.Xor(b).Xor(b).Equal(a)
	}
	if err := quick.Check(selfInverse, nil); err != nil {
		t.Errorf("xor self-inverse: %v", err)
	}
}

func TestStringForms(t *testing.T) {
	if got := B64(0x1f).String(); got != "0x1f" {
		t.Errorf("String() = %q", got)
	}
	wide := BWords(1, 0, 0, 2)
	if got := wide.String(); got == "" || got == "0x1" {
		t.Errorf("wide String() = %q", got)
	}
}

func TestBWordsPanicsOnTooMany(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BWords with 5 words should panic")
		}
	}()
	BWords(1, 2, 3, 4, 5)
}

package ctrmode

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"math/rand"
	"testing"
)

// TestMatchesStdlib proves Stream produces exactly the stdlib CTR keystream
// for every length crossing block boundaries and for IVs that exercise the
// carry out of each byte — in particular the carry from the low 8 bytes
// (the bucket write counter / link message counter) into the high 8.
func TestMatchesStdlib(t *testing.T) {
	b, err := aes.NewCipher(bytes.Repeat([]byte{0x5a}, 16))
	if err != nil {
		t.Fatal(err)
	}
	ivs := [][16]byte{
		{},
		{15: 0xff},                   // carry into byte 14 after one block
		{8: 0x00, 9: 0xff, 15: 0xff}, // multi-byte carry
		{0: 0x01, 7: 0xff, 15: 0xfe}, // high half populated
		{7: 0x12, 8: 0xff, 9: 0xff, 10: 0xff, 11: 0xff, 12: 0xff, 13: 0xff, 14: 0xff, 15: 0xff},                                                                // 64-bit boundary carry
		{0: 0xff, 1: 0xff, 2: 0xff, 3: 0xff, 4: 0xff, 5: 0xff, 6: 0xff, 7: 0xff, 8: 0xff, 9: 0xff, 10: 0xff, 11: 0xff, 12: 0xff, 13: 0xff, 14: 0xff, 15: 0xff}, // full wraparound
	}
	r := rand.New(rand.NewSource(1))
	var s Stream
	for _, iv := range ivs {
		for n := 0; n <= 100; n++ {
			src := make([]byte, n)
			r.Read(src)
			want := make([]byte, n)
			cipher.NewCTR(b, iv[:]).XORKeyStream(want, src)
			got := make([]byte, n)
			ivCopy := iv
			s.XORKeyStream(b, &ivCopy, got, src)
			if !bytes.Equal(got, want) {
				t.Fatalf("iv %x len %d: stream diverges from stdlib CTR", iv, n)
			}
			if ivCopy != iv {
				t.Fatalf("iv %x len %d: XORKeyStream mutated the caller's IV", iv, n)
			}
		}
	}
}

// TestInPlace proves dst == src (the way every caller uses it) works.
func TestInPlace(t *testing.T) {
	b, _ := aes.NewCipher(make([]byte, 16))
	iv := [16]byte{15: 0xfe}
	src := []byte("in-place counter mode round trip payload")
	want := make([]byte, len(src))
	cipher.NewCTR(b, iv[:]).XORKeyStream(want, src)
	buf := append([]byte(nil), src...)
	var s Stream
	s.XORKeyStream(b, &iv, buf, buf)
	if !bytes.Equal(buf, want) {
		t.Fatalf("in-place result diverges from stdlib CTR")
	}
}

// TestZeroAlloc is the package's own alloc gate: the keystream must be free
// of per-call allocations, or every layer above it inherits them.
func TestZeroAlloc(t *testing.T) {
	b, _ := aes.NewCipher(make([]byte, 16))
	s := new(Stream)
	iv := [16]byte{7: 0x09}
	buf := make([]byte, 80)
	if n := testing.AllocsPerRun(200, func() {
		s.XORKeyStream(b, &iv, buf, buf)
	}); n != 0 {
		t.Fatalf("XORKeyStream allocates %.1f allocs/op, want 0", n)
	}
}

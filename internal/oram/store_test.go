package oram

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

func TestBucketHelpers(t *testing.T) {
	b := NewBucket(4)
	if len(b.Slots) != 4 || b.RealBlocks() != 0 {
		t.Fatalf("new bucket: %+v", b)
	}
	b.Slots[1] = Block{Addr: 7, Leaf: 3}
	if b.RealBlocks() != 1 {
		t.Fatalf("RealBlocks = %d", b.RealBlocks())
	}
	if !b.Slots[0].IsDummy() || b.Slots[1].IsDummy() {
		t.Fatal("dummy detection wrong")
	}
}

func TestSparseStoreEmptyReadsDummy(t *testing.T) {
	s := NewSparseStore(4)
	b, err := s.ReadBucket(12345)
	if err != nil || b.RealBlocks() != 0 || len(b.Slots) != 4 {
		t.Fatalf("empty read: %+v %v", b, err)
	}
	if s.Materialized() != 0 {
		t.Fatal("read materialized a bucket")
	}
}

func TestSparseStoreRoundTrip(t *testing.T) {
	s := NewSparseStore(4)
	b := NewBucket(4)
	b.Slots[0] = Block{Addr: 9, Leaf: 2}
	if err := s.WriteBucket(5, b); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadBucket(5)
	if err != nil {
		t.Fatal(err)
	}
	if got.Slots[0].Addr != 9 || got.Slots[0].Leaf != 2 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestSparseStoreCounterMonotonic(t *testing.T) {
	s := NewSparseStore(4)
	b := NewBucket(4)
	for i := 1; i <= 3; i++ {
		if err := s.WriteBucket(1, b); err != nil {
			t.Fatal(err)
		}
		got, _ := s.ReadBucket(1)
		if got.Counter != uint64(i) {
			t.Fatalf("counter after %d writes = %d", i, got.Counter)
		}
	}
	// Writing a bucket carrying a bogus counter must not reset it.
	bogus := NewBucket(4)
	bogus.Counter = 0
	s.WriteBucket(1, bogus)
	got, _ := s.ReadBucket(1)
	if got.Counter != 4 {
		t.Fatalf("counter hijacked: %d", got.Counter)
	}
}

func TestSparseStoreCopyIsolation(t *testing.T) {
	s := NewSparseStore(4)
	b := NewBucket(4)
	b.Slots[0] = Block{Addr: 1, Leaf: 1}
	s.WriteBucket(0, b)
	got, _ := s.ReadBucket(0)
	got.Slots[0].Addr = 999
	again, _ := s.ReadBucket(0)
	if again.Slots[0].Addr != 1 {
		t.Fatal("ReadBucket aliases internal state")
	}
	b.Slots[0].Addr = 777 // mutate after write
	again, _ = s.ReadBucket(0)
	if again.Slots[0].Addr != 1 {
		t.Fatal("WriteBucket aliases caller state")
	}
}

func TestSparseStoreRejectsWrongZ(t *testing.T) {
	s := NewSparseStore(4)
	if err := s.WriteBucket(0, NewBucket(3)); err == nil {
		t.Fatal("wrong-Z bucket accepted")
	}
}

func TestMemStoreRoundTripWithPayload(t *testing.T) {
	s, err := NewMemStore(4, 64, []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBucket(4)
	data := bytes.Repeat([]byte{0xAB}, 64)
	b.Slots[2] = Block{Addr: 42, Leaf: 17, Data: data}
	if err := s.WriteBucket(3, b); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadBucket(3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Slots[2].Addr != 42 || got.Slots[2].Leaf != 17 || !bytes.Equal(got.Slots[2].Data, data) {
		t.Fatalf("round trip: %+v", got.Slots[2])
	}
	if got.RealBlocks() != 1 {
		t.Fatalf("RealBlocks = %d", got.RealBlocks())
	}
}

func TestMemStoreDetectsCorruption(t *testing.T) {
	s, _ := NewMemStore(4, 64, []byte("k"))
	s.WriteBucket(0, NewBucket(4))
	if !s.Corrupt(0) {
		t.Fatal("Corrupt found no bucket")
	}
	if _, err := s.ReadBucket(0); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("corrupted bucket read: %v", err)
	}
	if s.Corrupt(99) {
		t.Fatal("Corrupt invented a bucket")
	}
}

func TestMemStoreCiphertextChangesEveryWrite(t *testing.T) {
	s, _ := NewMemStore(4, 64, []byte("k"))
	b := NewBucket(4)
	b.Slots[0] = Block{Addr: 1, Leaf: 1, Data: make([]byte, 64)}
	s.WriteBucket(7, b)
	c1 := append([]byte(nil), s.buckets[7]...)
	s.WriteBucket(7, b)
	c2 := s.buckets[7]
	if bytes.Equal(c1[8:], c2[8:]) {
		t.Fatal("identical plaintext re-encrypted identically (pad reuse)")
	}
}

// TestMemStoreBucketIndicesCache checks the cached sorted order: it gains
// every bucket that materializes (by write or by restore), rewrites of an
// existing bucket keep it, and a slice handed out earlier never changes.
func TestMemStoreBucketIndicesCache(t *testing.T) {
	s, _ := NewMemStore(4, 64, []byte("k"))
	for _, idx := range []uint64{9, 2, 5} {
		if err := s.WriteBucket(idx, NewBucket(4)); err != nil {
			t.Fatal(err)
		}
	}
	first := s.BucketIndices()
	if want := []uint64{2, 5, 9}; !slices.Equal(first, want) {
		t.Fatalf("indices %v, want %v", first, want)
	}
	s.WriteBucket(5, NewBucket(4))
	if got := s.BucketIndices(); &got[0] != &first[0] {
		t.Fatal("rewriting an existing bucket rebuilt the sorted order")
	}
	s.WriteBucket(7, NewBucket(4))
	raw, _ := s.RawBucket(9)
	if err := s.RestoreRaw(1, raw); err != nil {
		t.Fatal(err)
	}
	if got, want := s.BucketIndices(), []uint64{1, 2, 5, 7, 9}; !slices.Equal(got, want) {
		t.Fatalf("indices after materializing 7 and restoring 1: %v, want %v", got, want)
	}
	if !slices.Equal(first, []uint64{2, 5, 9}) {
		t.Fatalf("earlier result changed under its holder: %v", first)
	}
}

func TestMemStoreRejectsOversizedPayload(t *testing.T) {
	s, _ := NewMemStore(4, 64, []byte("k"))
	b := NewBucket(4)
	b.Slots[0] = Block{Addr: 1, Leaf: 1, Data: make([]byte, 65)}
	if err := s.WriteBucket(0, b); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestMemStoreInvalidShape(t *testing.T) {
	if _, err := NewMemStore(0, 64, nil); err == nil {
		t.Fatal("Z=0 accepted")
	}
	if _, err := NewMemStore(4, 0, nil); err == nil {
		t.Fatal("blockBytes=0 accepted")
	}
}

// Property: MemStore round-trips arbitrary bucket contents.
func TestPropertyMemStoreRoundTrip(t *testing.T) {
	s, _ := NewMemStore(2, 16, []byte("prop"))
	f := func(idx uint64, a0, l0, a1, l1 uint64, d0, d1 [16]byte) bool {
		b := NewBucket(2)
		if a0 != DummyAddr {
			b.Slots[0] = Block{Addr: a0, Leaf: l0, Data: d0[:]}
		}
		if a1 != DummyAddr {
			b.Slots[1] = Block{Addr: a1, Leaf: l1, Data: d1[:]}
		}
		if err := s.WriteBucket(idx, b); err != nil {
			return false
		}
		got, err := s.ReadBucket(idx)
		if err != nil {
			return false
		}
		for i := range b.Slots {
			if got.Slots[i].Addr != b.Slots[i].Addr {
				return false
			}
			if !b.Slots[i].IsDummy() {
				if got.Slots[i].Leaf != b.Slots[i].Leaf || !bytes.Equal(got.Slots[i].Data, b.Slots[i].Data) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStashBasics(t *testing.T) {
	s := NewStash(2)
	if err := s.Put(Block{Addr: DummyAddr}); err == nil {
		t.Fatal("dummy accepted")
	}
	if err := s.Put(Block{Addr: 1, Leaf: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Block{Addr: 2, Leaf: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Block{Addr: 3, Leaf: 3}); !errors.Is(err, ErrStashOverflow) {
		t.Fatalf("overflow: %v", err)
	}
	// Replacing an existing entry is always allowed.
	if err := s.Put(Block{Addr: 1, Leaf: 9}); err != nil {
		t.Fatalf("replace failed: %v", err)
	}
	b, ok := s.Get(1)
	if !ok || b.Leaf != 9 {
		t.Fatalf("Get = %+v %v", b, ok)
	}
	if _, ok := s.Remove(1); !ok || s.Len() != 1 {
		t.Fatal("remove failed")
	}
	n := 0
	s.Range(func(Block) bool { n++; return true })
	if n != 1 {
		t.Fatalf("Range visited %d", n)
	}
	s.Range(func(Block) bool { return false }) // early stop must not panic
}

func TestPosMaps(t *testing.T) {
	for _, pm := range []PositionMap{NewDensePosMap(100), NewSparsePosMap()} {
		if _, ok := pm.Get(5); ok {
			t.Fatal("unmapped address reported mapped")
		}
		pm.Set(5, 77)
		if l, ok := pm.Get(5); !ok || l != 77 {
			t.Fatalf("Get = %d %v", l, ok)
		}
		pm.Set(5, 78)
		if l, _ := pm.Get(5); l != 78 {
			t.Fatal("overwrite lost")
		}
		if pm.Len() != 1 {
			t.Fatalf("Len = %d", pm.Len())
		}
	}
}

func TestDensePosMapOutOfRangeGet(t *testing.T) {
	m := NewDensePosMap(4)
	if _, ok := m.Get(100); ok {
		t.Fatal("out-of-range Get returned ok")
	}
}

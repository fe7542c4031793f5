package oram

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"sdimm/internal/ctrmode"
	"sdimm/internal/integrity"
)

// DummyAddr marks an empty bucket slot.
const DummyAddr = ^uint64(0)

// Block is one ORAM block: its logical address, its assigned leaf, and (in
// functional mode) its payload.
type Block struct {
	Addr uint64
	Leaf uint64
	Data []byte // nil in sparse/timing mode
}

// IsDummy reports whether the slot is empty.
func (b Block) IsDummy() bool { return b.Addr == DummyAddr }

// Bucket is one tree node: Z slots plus the monotonic write counter used
// for encryption and PMMAC freshness.
type Bucket struct {
	Slots   []Block
	Counter uint64
}

// NewBucket returns an all-dummy bucket with z slots.
func NewBucket(z int) Bucket {
	b := Bucket{Slots: make([]Block, z)}
	for i := range b.Slots {
		b.Slots[i].Addr = DummyAddr
	}
	return b
}

// RealBlocks returns the number of non-dummy slots.
func (b Bucket) RealBlocks() int {
	n := 0
	for _, s := range b.Slots {
		if !s.IsDummy() {
			n++
		}
	}
	return n
}

// Store abstracts bucket storage. Bucket indices follow Geometry's heap
// order. Reading a never-written bucket returns an all-dummy bucket.
type Store interface {
	ReadBucket(idx uint64) (Bucket, error)
	// ReadBucketInto is ReadBucket decoding into a caller-provided bucket,
	// resizing b.Slots as needed. Slot Data may alias store-internal scratch
	// valid only until the next call on the store; callers that retain
	// payloads must copy them. This is the engine's hot-path read.
	ReadBucketInto(idx uint64, b *Bucket) error
	WriteBucket(idx uint64, b Bucket) error
	// Z returns the slots per bucket.
	Z() int
}

// resetSlots sizes b.Slots to z and fills it with dummies, reusing capacity.
func resetSlots(b *Bucket, z int) {
	if cap(b.Slots) < z {
		b.Slots = make([]Block, z)
	}
	b.Slots = b.Slots[:z]
	for i := range b.Slots {
		b.Slots[i] = Block{Addr: DummyAddr}
	}
}

// SparseStore keeps bucket placement metadata only (no payloads, no
// cryptography): the timing simulator's backing store. Memory grows with
// the number of buckets ever written.
type SparseStore struct {
	z       int
	buckets map[uint64]Bucket
}

// NewSparseStore builds an empty sparse store with z slots per bucket.
func NewSparseStore(z int) *SparseStore {
	return &SparseStore{z: z, buckets: make(map[uint64]Bucket)}
}

// Z implements Store.
func (s *SparseStore) Z() int { return s.z }

// ReadBucket implements Store.
func (s *SparseStore) ReadBucket(idx uint64) (Bucket, error) {
	if b, ok := s.buckets[idx]; ok {
		// Return a copy so callers cannot alias stored state.
		cp := Bucket{Slots: append([]Block(nil), b.Slots...), Counter: b.Counter}
		return cp, nil
	}
	return NewBucket(s.z), nil
}

// ReadBucketInto implements Store without allocating (sparse slots carry no
// payloads, so the slot copy is the whole read).
func (s *SparseStore) ReadBucketInto(idx uint64, b *Bucket) error {
	if st, ok := s.buckets[idx]; ok {
		if cap(b.Slots) < s.z {
			b.Slots = make([]Block, s.z)
		}
		b.Slots = b.Slots[:s.z]
		copy(b.Slots, st.Slots)
		b.Counter = st.Counter
		return nil
	}
	resetSlots(b, s.z)
	b.Counter = 0
	return nil
}

// WriteBucket implements Store. The write counter is owned by the store and
// advances monotonically regardless of the Counter field passed in.
func (s *SparseStore) WriteBucket(idx uint64, b Bucket) error {
	if len(b.Slots) != s.z {
		return fmt.Errorf("oram: bucket with %d slots written to Z=%d store", len(b.Slots), s.z)
	}
	var counter uint64
	if old, ok := s.buckets[idx]; ok {
		counter = old.Counter
	}
	cp := Bucket{Slots: append([]Block(nil), b.Slots...), Counter: counter + 1}
	s.buckets[idx] = cp
	return nil
}

// Materialized returns how many buckets have ever been written (test and
// memory-footprint introspection).
func (s *SparseStore) Materialized() int { return len(s.buckets) }

// ErrIntegrity is returned when a bucket fails MAC verification.
var ErrIntegrity = errors.New("oram: bucket failed integrity verification")

// MemStore is the functional store: buckets are serialized, encrypted with
// AES-CTR under a per-bucket counter, and authenticated with PMMAC. It is
// what a real secure buffer does to its DRAM contents; unit and property
// tests run the full engine against it. Not safe for concurrent use: the
// keystream, MAC, and plaintext buffers are reused across calls.
type MemStore struct {
	z          int
	blockBytes int
	aead       cipher.Block
	mac        *integrity.PMMAC
	buckets    map[uint64][]byte // idx -> counter || ciphertext || tag
	writes     uint64            // physical bucket seals (see Writes)

	// sorted caches BucketIndices; nil once a new bucket materializes.
	sorted []uint64

	// Reusable scratch: CTR stream state, IV, and the plaintext staging
	// buffer shared by ReadBucketInto (decode) and PutBucketAt (encode).
	stream ctrmode.Stream
	iv     [aes.BlockSize]byte
	ptBuf  []byte
}

// NewMemStore builds a functional store. key seeds both the encryption and
// MAC keys; blockBytes is the payload size of every block.
func NewMemStore(z, blockBytes int, key []byte) (*MemStore, error) {
	if z <= 0 || blockBytes <= 0 {
		return nil, fmt.Errorf("oram: invalid store shape z=%d block=%d", z, blockBytes)
	}
	kb := make([]byte, 16)
	copy(kb, key)
	blk, err := aes.NewCipher(kb)
	if err != nil {
		return nil, fmt.Errorf("oram: store cipher: %w", err)
	}
	macKey := append([]byte("pmmac|"), key...)
	return &MemStore{
		z:          z,
		blockBytes: blockBytes,
		aead:       blk,
		mac:        integrity.New(macKey),
		buckets:    make(map[uint64][]byte),
	}, nil
}

// Z implements Store.
func (s *MemStore) Z() int { return s.z }

const slotHeader = 16 // addr (8) + leaf (8)

func (s *MemStore) plainSize() int { return s.z * (slotHeader + s.blockBytes) }

// scratch returns the plaintext staging buffer sized to one bucket.
func (s *MemStore) scratch() []byte {
	if cap(s.ptBuf) < s.plainSize() {
		s.ptBuf = make([]byte, s.plainSize())
	}
	return s.ptBuf[:s.plainSize()]
}

// ReadBucket implements Store: it decrypts and verifies the bucket. Slot
// payloads are fresh allocations the caller owns; the engine's hot path
// uses ReadBucketInto instead.
func (s *MemStore) ReadBucket(idx uint64) (Bucket, error) {
	var b Bucket
	if err := s.ReadBucketInto(idx, &b); err != nil {
		return Bucket{}, err
	}
	for i := range b.Slots {
		if b.Slots[i].Data != nil {
			b.Slots[i].Data = append([]byte(nil), b.Slots[i].Data...)
		}
	}
	return b, nil
}

// ReadBucketInto implements Store: decrypt and verify into b without
// allocating. Non-dummy slot Data aliases the store's plaintext scratch —
// valid only until the next call on the store.
func (s *MemStore) ReadBucketInto(idx uint64, b *Bucket) error {
	raw, ok := s.buckets[idx]
	if !ok {
		resetSlots(b, s.z)
		b.Counter = 0
		return nil
	}
	counter := binary.BigEndian.Uint64(raw[:8])
	ct := raw[8 : 8+s.plainSize()]
	tag := raw[8+s.plainSize():]
	if !s.mac.Verify(idx, counter, ct, tag) {
		return fmt.Errorf("%w: bucket %d", ErrIntegrity, idx)
	}
	pt := s.scratch()
	s.keystream(idx, counter, ct, pt)
	if cap(b.Slots) < s.z {
		b.Slots = make([]Block, s.z)
	}
	b.Slots = b.Slots[:s.z]
	b.Counter = counter
	for i := 0; i < s.z; i++ {
		off := i * (slotHeader + s.blockBytes)
		b.Slots[i].Addr = binary.BigEndian.Uint64(pt[off:])
		b.Slots[i].Leaf = binary.BigEndian.Uint64(pt[off+8:])
		if b.Slots[i].IsDummy() {
			b.Slots[i].Data = nil
		} else {
			b.Slots[i].Data = pt[off+slotHeader : off+slotHeader+s.blockBytes]
		}
	}
	return nil
}

// WriteBucket implements Store: it bumps the counter, re-encrypts and
// re-MACs the bucket (every Path ORAM writeback re-encrypts). The counter
// is owned by the store and advances monotonically.
func (s *MemStore) WriteBucket(idx uint64, b Bucket) error {
	var counter uint64
	if old, ok := s.buckets[idx]; ok {
		counter = binary.BigEndian.Uint64(old[:8])
	}
	return s.PutBucketAt(idx, b, counter+1)
}

// PutBucketAt seals b at idx under an explicit write counter instead of
// bumping the stored one. The scrub pass uses it to reconstruct a corrupted
// shard bucket bit-exactly: with the sibling shards' (identical, lockstep)
// counter and the parity-recovered plaintext, the re-encryption reproduces
// the exact pre-corruption ciphertext and tag. Slot Data must not alias the
// store's read scratch: payloads obtained from ReadBucketInto have to be
// copied before being written back.
func (s *MemStore) PutBucketAt(idx uint64, b Bucket, counter uint64) error {
	if len(b.Slots) != s.z {
		return fmt.Errorf("oram: bucket with %d slots written to Z=%d store", len(b.Slots), s.z)
	}
	pt := s.scratch()
	for i := range pt {
		pt[i] = 0
	}
	for i, slot := range b.Slots {
		off := i * (slotHeader + s.blockBytes)
		binary.BigEndian.PutUint64(pt[off:], slot.Addr)
		binary.BigEndian.PutUint64(pt[off+8:], slot.Leaf)
		if !slot.IsDummy() {
			if len(slot.Data) > s.blockBytes {
				return fmt.Errorf("oram: block %d payload %d exceeds %d bytes", slot.Addr, len(slot.Data), s.blockBytes)
			}
			copy(pt[off+slotHeader:off+slotHeader+s.blockBytes], slot.Data)
		}
	}
	// Steady state reseals in place: the stored raw buffer has the same
	// (shape-determined) size for the life of the bucket.
	rawSize := 8 + len(pt) + integrity.TagSize
	raw, ok := s.buckets[idx]
	if !ok {
		s.sorted = nil
	}
	if !ok || len(raw) != rawSize {
		raw = make([]byte, rawSize)
	}
	binary.BigEndian.PutUint64(raw[:8], counter)
	ct := raw[8 : 8+len(pt)]
	s.keystream(idx, counter, pt, ct)
	raw = s.mac.AppendTag(raw[:8+len(pt)], idx, counter, ct)
	s.buckets[idx] = raw
	s.writes++
	return nil
}

// Writes returns the number of physical bucket seals this store has
// performed — every encrypt-and-MAC of a bucket, whatever triggered it.
// The ring-eviction write-traffic gate compares this across backends at
// equal workload.
func (s *MemStore) Writes() uint64 { return s.writes }

// BucketIndices returns the indices of every bucket ever written, sorted
// ascending. Checkpoint capture and the recovery scrub pass iterate it so
// their work (and any RNG-free repair decisions) is deterministic. The
// sorted order is cached until a new bucket materializes, so every
// checkpoint after the tree fills reuses it; the returned slice is shared
// and must not be modified (a later rebuild allocates a fresh one, so a
// caller's view never changes under it).
func (s *MemStore) BucketIndices() []uint64 {
	if s.sorted == nil {
		idxs := make([]uint64, 0, len(s.buckets))
		for idx := range s.buckets {
			idxs = append(idxs, idx)
		}
		slices.Sort(idxs)
		s.sorted = idxs
	}
	return s.sorted
}

// RawBucket returns the sealed on-"DRAM" bytes of a bucket (counter ||
// ciphertext || tag) and whether the bucket exists. Checkpoints persist the
// sealed form verbatim so a restore is bit-exact and the stored MACs keep
// protecting the payload at rest. The slice aliases the store, not a copy:
// the next write of the bucket reseals it in place, so checkpoint capture
// borrows buckets only while the cluster is quiescent and reads them only
// until the checkpoint is written.
func (s *MemStore) RawBucket(idx uint64) ([]byte, bool) {
	raw, ok := s.buckets[idx]
	return raw, ok
}

// RestoreRaw installs sealed bucket bytes captured by RawBucket. Only the
// length is validated here; authenticity is checked by ReadBucket (and the
// post-restore scrub pass) via the embedded PMMAC tag.
func (s *MemStore) RestoreRaw(idx uint64, raw []byte) error {
	want := 8 + s.plainSize() + integrity.TagSize
	if len(raw) != want {
		return fmt.Errorf("oram: restored bucket %d is %d bytes, want %d", idx, len(raw), want)
	}
	if _, ok := s.buckets[idx]; !ok {
		s.sorted = nil
	}
	s.buckets[idx] = append([]byte(nil), raw...)
	return nil
}

// Counter returns the stored write counter of a bucket (0 if the bucket was
// never written). The Split scrub pass reads a healthy sibling's counter to
// reseal a reconstructed shard bucket bit-exactly.
func (s *MemStore) Counter(idx uint64) uint64 {
	raw, ok := s.buckets[idx]
	if !ok {
		return 0
	}
	return binary.BigEndian.Uint64(raw[:8])
}

// Corrupt flips a ciphertext bit in a stored bucket (test hook for
// integrity-failure injection). It reports whether the bucket existed.
func (s *MemStore) Corrupt(idx uint64) bool {
	raw, ok := s.buckets[idx]
	if !ok {
		return false
	}
	raw[8] ^= 0x01
	return true
}

// keystream XORs src into dst with the AES-CTR stream bound to (bucket,
// counter), so every write of every bucket uses a fresh pad. ctrmode is
// bit-identical to the stdlib CTR this originally used, so sealed bytes
// persisted by old checkpoints still decrypt.
func (s *MemStore) keystream(idx, counter uint64, src, dst []byte) {
	binary.BigEndian.PutUint64(s.iv[:8], idx)
	binary.BigEndian.PutUint64(s.iv[8:], counter)
	s.stream.XORKeyStream(s.aead, &s.iv, dst, src)
}

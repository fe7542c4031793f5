package durable

import (
	"bytes"
	"math/rand"
	"testing"
)

// randomBytes returns n random bytes, or nil for n == 0.
func randomBytes(r *rand.Rand, n int) []byte {
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	r.Read(b)
	return b
}

func randomBlocks(r *rand.Rand) []BlockState {
	out := make([]BlockState, r.Intn(4)) // empty lists included
	for i := range out {
		out[i] = BlockState{Addr: r.Uint64(), Leaf: r.Uint64(), Data: randomBytes(r, r.Intn(48))}
	}
	return out
}

// randomCheckpoint draws a checkpoint covering every variable-length part
// of the format: empty and non-empty stash and transfer queue, ring
// snapshots, drains, poisoned addresses and detached members.
func randomCheckpoint(r *rand.Rand) *Checkpoint {
	cp := &Checkpoint{
		Seq:     r.Uint64(),
		RNG:     [4]uint64{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()},
		MigSeq:  r.Uint64(),
		TopoSeq: r.Uint64(),
	}
	r.Read(cp.FP[:])
	for i, n := 0, r.Intn(20); i < n; i++ {
		cp.Positions = append(cp.Positions, PosEntry{Addr: uint64(i), Value: r.Uint64()})
	}
	for i, n := 0, r.Intn(5); i < n; i++ {
		m := MemberState{
			EngineRNG:   [4]uint64{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()},
			BufferRNG:   [4]uint64{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()},
			Stash:       randomBlocks(r),
			Transfer:    randomBlocks(r),
			Health:      HealthState{State: r.Intn(4), Consecutive: r.Intn(9), Successes: r.Uint64(), Failures: r.Uint64()},
			HostSend:    r.Uint64(),
			HostRecv:    r.Uint64(),
			DevSend:     r.Uint64(),
			DevRecv:     r.Uint64(),
			Incarnation: uint64(r.Intn(3)),
			Detached:    r.Intn(2) == 1,
			Ring:        randomBytes(r, r.Intn(2)*(1+r.Intn(40))),
		}
		for j, nb := 0, r.Intn(6); j < nb; j++ {
			m.Buckets = append(m.Buckets, BucketState{Idx: uint64(j), Raw: randomBytes(r, r.Intn(80))})
		}
		cp.Members = append(cp.Members, m)
	}
	for i, n := 0, r.Intn(4); i < n; i++ {
		cp.Poisoned = append(cp.Poisoned, uint64(i)*7)
	}
	for i, n := 0, r.Intn(3); i < n; i++ {
		cp.Drains = append(cp.Drains, DrainState{Member: uint64(i), Moved: r.Uint64()})
	}
	return cp
}

// TestCheckpointBodySizeExact is the property behind the single-buffer
// encoder: the precomputed body size equals the encoded body length for
// every checkpoint shape, the image decodes and re-encodes to itself, and
// a size that is off in either direction is an error rather than a
// truncated or regrown file.
func TestCheckpointBodySizeExact(t *testing.T) {
	key := []byte("size-property-key")
	enc := newCheckpointEncoder(key)
	r := rand.New(rand.NewSource(13))
	cases := []*Checkpoint{{}, testCheckpoint(1)}
	for i := 0; i < 500; i++ {
		cases = append(cases, randomCheckpoint(r))
	}
	for i, cp := range cases {
		size := checkpointBodySize(cp)
		img, err := enc.encode(cp)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		if want := checkpointHeaderSize + size + checkpointMACSize; len(img) != want {
			t.Fatalf("case %d: image is %d bytes, sized %d", i, len(img), want)
		}
		img = append([]byte(nil), img...)
		got, err := decodeCheckpoint(key, img)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !bytes.Equal(encodeForTest(t, key, got), img) {
			t.Fatalf("case %d: decoded checkpoint re-encodes differently", i)
		}
		for _, wrong := range []int{size - 1, size + 1} {
			if wrong < 0 {
				continue
			}
			if img, err := enc.encodeSized(cp, wrong); err == nil {
				t.Fatalf("case %d: body sized %d (exact %d) encoded to a %d-byte image without error", i, wrong, size, len(img))
			}
		}
	}
}

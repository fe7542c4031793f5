package sdimm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sdimm/internal/durable"
	isdimm "sdimm/internal/sdimm"
)

// readCheckpointFile returns the bytes of the checkpoint published at seq.
func readCheckpointFile(t *testing.T, dir string, seq uint64) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("checkpoint-%016x.ckpt", seq)))
	if err != nil {
		t.Fatalf("read checkpoint %d: %v", seq, err)
	}
	return data
}

// runOps drives ops sequentially through read and write.
func runOps(t *testing.T, read func(uint64) ([]byte, error), write func(uint64, []byte) error, ops []recOp) {
	t.Helper()
	for i, op := range ops {
		var err error
		if op.write {
			err = write(op.addr, op.data)
		} else {
			_, err = read(op.addr)
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
}

// TestCheckpointBytesGolden pins the SDIMMCP3 encoding end to end: the
// checkpoint files of fixed-seed clusters (ring eviction with a drain in
// flight, a detached member, Split with parity) hash to the values this
// format has always produced, so a change to how checkpoints are captured
// or encoded cannot silently change what is on disk.
func TestCheckpointBytesGolden(t *testing.T) {
	ops := recWorkload(31, 240, 40)
	for _, tc := range []struct {
		name string
		want string
		run  func(t *testing.T, dir string) uint64
	}{
		{"independent-ring-draining", "61665142e902f82043fe93c349ab6bcc480aa19b8f32b1250de6f4775b1feb77", func(t *testing.T, dir string) uint64 {
			c, err := NewCluster(ClusterOptions{SDIMMs: 4, Levels: 8, RingFlushInterval: 4, Key: []byte("golden-key"), Seed: 5,
				Durability: &DurabilityOptions{Dir: dir, Interval: 64}})
			if err != nil {
				t.Fatalf("NewCluster: %v", err)
			}
			defer c.Close()
			runOps(t, c.Read, c.Write, ops)
			if err := c.BeginDrain(1); err != nil {
				t.Fatalf("BeginDrain: %v", err)
			}
			for i := 0; i < 3; i++ {
				if _, err := c.DrainStep(); err != nil {
					t.Fatalf("DrainStep: %v", err)
				}
			}
			if err := c.ForceCheckpoint(); err != nil {
				t.Fatalf("ForceCheckpoint: %v", err)
			}
			return c.Seq()
		}},
		{"independent-detached", "bb68e080689590272f7a94cb87991811f924055d3a5a244f6c53cfad4331f1e4", func(t *testing.T, dir string) uint64 {
			c, err := NewCluster(ClusterOptions{SDIMMs: 4, Levels: 7, Key: []byte("golden-key"), Seed: 6,
				Durability: &DurabilityOptions{Dir: dir, Interval: 64}})
			if err != nil {
				t.Fatalf("NewCluster: %v", err)
			}
			defer c.Close()
			runOps(t, c.Read, c.Write, ops[:120])
			if err := c.BeginDrain(2); err != nil {
				t.Fatalf("BeginDrain: %v", err)
			}
			for done := false; !done; {
				if done, err = c.DrainStep(); err != nil {
					t.Fatalf("DrainStep: %v", err)
				}
			}
			if err := c.CompleteDrain(); err != nil {
				t.Fatalf("CompleteDrain: %v", err)
			}
			runOps(t, c.Read, c.Write, ops[120:])
			if err := c.ForceCheckpoint(); err != nil {
				t.Fatalf("ForceCheckpoint: %v", err)
			}
			return c.Seq()
		}},
		{"split-parity", "2e39e35e23a81e80200dbd2bf9443c7ec1b979c36118c0ec5e249de4c24afc9b", func(t *testing.T, dir string) uint64 {
			c, err := NewSplitCluster(SplitClusterOptions{SDIMMs: 2, Levels: 7, Key: []byte("golden-key"), Seed: 7, Parity: true,
				Durability: &DurabilityOptions{Dir: dir, Interval: 64}})
			if err != nil {
				t.Fatalf("NewSplitCluster: %v", err)
			}
			defer c.Close()
			runOps(t, c.Read, c.Write, ops)
			if err := c.ForceCheckpoint(); err != nil {
				t.Fatalf("ForceCheckpoint: %v", err)
			}
			return c.Seq()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			seq := tc.run(t, dir)
			sum := sha256.Sum256(readCheckpointFile(t, dir, seq))
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Fatalf("checkpoint %d hashes to %s, want %s", seq, got, tc.want)
			}
		})
	}
}

// copyingCapture rebuilds cp with every bucket copied out of the stores:
// the capture as it was before checkpoints borrowed them.
func copyingCapture(cp *durable.Checkpoint, members []*isdimm.Buffer) *durable.Checkpoint {
	out := *cp
	out.Members = make([]durable.MemberState, len(cp.Members))
	for i, m := range cp.Members {
		ms := memStore(members[i])
		m.Buckets = nil
		for _, idx := range ms.BucketIndices() {
			raw, _ := ms.RawBucket(idx)
			m.Buckets = append(m.Buckets, durable.BucketState{Idx: idx, Raw: append([]byte(nil), raw...)})
		}
		out.Members[i] = m
	}
	return &out
}

// TestCheckpointCaptureBorrowsStores checks copy-free capture on both
// cluster flavours: the capture borrows the stores' sealed bytes, encodes
// byte-identically to a capture that copies them, lets go of the borrowed
// views once written, and the published file stays unchanged when later
// accesses reseal the borrowed buckets in place.
func TestCheckpointCaptureBorrowsStores(t *testing.T) {
	durKey := []byte("borrow-durable-key")
	ops := recWorkload(23, 300, 48)
	type flavour struct {
		d       *durableState
		members func() []*isdimm.Buffer
		fp      durable.Fingerprint
		capture func() *durable.Checkpoint
		force   func() error
		drive   func([]recOp)
	}
	for _, tc := range []struct {
		name  string
		build func(t *testing.T, dur *DurabilityOptions) flavour
	}{
		{"independent", func(t *testing.T, dur *DurabilityOptions) flavour {
			opts := ClusterOptions{SDIMMs: 4, Levels: 8, RingFlushInterval: 4, Key: []byte("borrow-key"), Seed: 3, Durability: dur}
			c, err := NewCluster(opts)
			if err != nil {
				t.Fatalf("NewCluster: %v", err)
			}
			t.Cleanup(func() { c.Close() })
			return flavour{&c.durableState, func() []*isdimm.Buffer { return c.buffers },
				independentFingerprint(opts.withDefaults()), c.capture, c.ForceCheckpoint,
				func(ops []recOp) { runOps(t, c.Read, c.Write, ops) }}
		}},
		{"split-parity", func(t *testing.T, dur *DurabilityOptions) flavour {
			opts := SplitClusterOptions{SDIMMs: 2, Levels: 7, Key: []byte("borrow-key"), Seed: 3, Parity: true, Durability: dur}
			c, err := NewSplitCluster(opts)
			if err != nil {
				t.Fatalf("NewSplitCluster: %v", err)
			}
			t.Cleanup(c.Close)
			return flavour{&c.durableState, c.allMembers,
				splitFingerprint(opts.withDefaults()),
				func() *durable.Checkpoint { return c.captureCheckpoint(c.rnd, c.pos, c.allMembers(), c.health) },
				c.ForceCheckpoint,
				func(ops []recOp) { runOps(t, c.Read, c.Write, ops) }}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			// No checkpoint falls due during the test: only the forced one.
			f := tc.build(t, &DurabilityOptions{Dir: dir, Key: durKey, Interval: 1 << 20})
			f.drive(ops[:200])

			// Take the views from a capture before anything is written.
			type view struct {
				member int
				raw    []byte
			}
			members := f.members()
			captured := f.capture()
			var views []view
			for i, m := range captured.Members {
				for _, bk := range m.Buckets {
					raw, ok := memStore(members[i]).RawBucket(bk.Idx)
					if !ok || &raw[0] != &bk.Raw[0] {
						t.Fatalf("member %d bucket %d was copied, not borrowed", i, bk.Idx)
					}
					views = append(views, view{i, bk.Raw})
				}
			}
			if len(views) == 0 {
				t.Fatal("checkpoint captured no buckets")
			}
			copied := copyingCapture(captured, members)

			if err := f.force(); err != nil {
				t.Fatalf("ForceCheckpoint: %v", err)
			}
			seq := f.d.Seq()
			published := readCheckpointFile(t, dir, seq)
			for i, m := range f.d.ckpt.Members {
				if len(m.Buckets) != 0 {
					t.Fatalf("member %d: scratch still lists %d buckets after the write", i, len(m.Buckets))
				}
				for _, bk := range m.Buckets[:cap(m.Buckets)] {
					if bk.Raw != nil {
						t.Fatalf("member %d: scratch still holds a view of bucket %d after the write", i, bk.Idx)
					}
				}
			}

			cdir := t.TempDir()
			mgr, err := durable.Open(cdir, durKey, f.fp, f.fp.BlockSize, false)
			if err != nil {
				t.Fatalf("durable.Open: %v", err)
			}
			defer mgr.Close()
			if err := mgr.WriteCheckpoint(copied); err != nil {
				t.Fatalf("WriteCheckpoint (copying capture): %v", err)
			}
			if !bytes.Equal(readCheckpointFile(t, cdir, seq), published) {
				t.Fatal("borrowed capture encodes differently from copying capture")
			}

			f.drive(ops[200:])
			resealed := 0
			next := make([]int, len(copied.Members))
			for _, v := range views {
				if !bytes.Equal(v.raw, copied.Members[v.member].Buckets[next[v.member]].Raw) {
					resealed++
				}
				next[v.member]++
			}
			if resealed == 0 {
				t.Fatal("no borrowed bucket was resealed by the later accesses")
			}
			if !bytes.Equal(readCheckpointFile(t, dir, seq), published) {
				t.Fatal("published checkpoint changed after its buckets were resealed")
			}
		})
	}
}

package durable

import (
	"bytes"
	"encoding/binary"
	"testing"

	"sdimm/internal/integrity"
)

// FuzzJournalDecode asserts the journal decoder fails closed on arbitrary
// bytes: it never panics, and whatever it accepts is a contiguous,
// chain-authenticated record prefix of whole groups. Seeded with a valid
// journal mixing a multi-record group (a pipeline wave) and singleton groups
// (sequential appends) so mutations explore the interesting paths.
func FuzzJournalDecode(f *testing.F) {
	key := []byte("fuzz-journal-key")
	fp := testFP.Hash()
	hdr, mac := encodeJournalHeader(key, fp, 7, 16)
	file := append([]byte(nil), hdr...)
	chain := integrity.NewChain(key, mac)
	writeGroup := func(recs ...Record) {
		group := make([]byte, groupCountSize)
		binary.BigEndian.PutUint32(group, uint32(len(recs)))
		for i, rec := range recs {
			var err error
			if group, err = appendRecord(group, rec, 16); err != nil {
				f.Fatalf("encode seed record %d: %v", i, err)
			}
		}
		file = append(file, chain.AppendNext(group, group)...)
	}
	writeGroup(
		Record{Seq: 8, Addr: 3, Kind: KindWrite, Data: bytes.Repeat([]byte{0x5a}, 16)},
		Record{Seq: 9, Addr: 4},
		Record{Seq: 10, Addr: 1, Kind: KindDrainBegin},
	)
	writeGroup(Record{Seq: 11, Addr: 6, Kind: KindMigrate})
	writeGroup(
		Record{Seq: 12, Addr: 1, Kind: KindDrainEnd},
		Record{Seq: 13, Addr: 1, Kind: KindJoin},
	)
	f.Add(file)
	f.Add(file[:len(file)-5])       // torn tail
	f.Add(file[:journalHeaderSize]) // empty journal
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, recs, _, err := decodeJournal(key, data)
		if err != nil {
			if len(recs) != 0 {
				t.Fatalf("decoder returned %d records alongside error %v", len(recs), err)
			}
			return
		}
		for i, rec := range recs {
			if rec.Seq != hdr.BaseSeq+1+uint64(i) {
				t.Fatalf("record %d has seq %d, want contiguous from base %d", i, rec.Seq, hdr.BaseSeq)
			}
			if rec.Kind >= kindCount {
				t.Fatalf("record %d has out-of-range kind %d", i, rec.Kind)
			}
			if rec.Kind == KindWrite && len(rec.Data) != int(hdr.BlockSize) {
				t.Fatalf("write record %d payload %d != block size %d", i, len(rec.Data), hdr.BlockSize)
			}
			if rec.Kind != KindWrite && rec.Data != nil {
				t.Fatalf("non-write record %d carries payload", i)
			}
		}
	})
}

// FuzzCheckpointDecode asserts the checkpoint decoder fails closed: no
// panics, no unauthenticated acceptance. Under a fixed key, any input it
// accepts must re-encode to an authentic file (HMAC makes acceptance of a
// mutated file astronomically unlikely; the property that matters here is
// crash-freedom of the bounds-checked parser).
func FuzzCheckpointDecode(f *testing.F) {
	key := []byte("fuzz-checkpoint-key")
	cp := testCheckpoint(3)
	cp.FP = testFP.Hash()
	enc := encodeForTest(f, key, cp)
	f.Add(enc)
	f.Add(enc[:len(enc)-1])
	f.Add(enc[:20])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeCheckpoint(key, data)
		if err != nil {
			return
		}
		// Accepted input must be byte-identical to its canonical encoding.
		if !bytes.Equal(encodeForTest(t, key, got), data) {
			t.Fatal("decoder accepted a non-canonical checkpoint")
		}
	})
}

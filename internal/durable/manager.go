package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"sdimm/internal/integrity"
)

// ErrCrashed is returned by every durable operation after a planned crash
// point fires (or once the manager is torn down by one). The cluster treats
// it as fail-stop: the process is "dead" and must be recovered from disk.
var ErrCrashed = errors.New("durable: simulated crash")

// Fingerprint identifies the cluster shape a state directory belongs to.
// Recovery refuses to load state written by a differently-shaped cluster —
// a mismatched geometry would deserialize cleanly and then corrupt silently.
type Fingerprint struct {
	Kind      string // "independent" or "split"
	Members   int
	Levels    int
	BlockSize int
	Z         int
	Seed      uint64
	Parity    bool
}

// Hash condenses the fingerprint into the 8 bytes embedded in every file
// header. FNV-1a over the printed form is plenty: this is an operator
// mistake detector, not a security boundary (the HMACs are).
func (f Fingerprint) Hash() [8]byte {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%d|%d|%d|%t", f.Kind, f.Members, f.Levels, f.BlockSize, f.Z, f.Seed, f.Parity)
	var out [8]byte
	h.Sum(out[:0])
	return out
}

// RecoveryReport summarizes what Recover (and the cluster-level scrub pass
// that follows it) did, for operator runbooks and tests.
type RecoveryReport struct {
	CheckpointSeq        uint64   // seq of the checkpoint actually loaded
	CheckpointsSkipped   int      // newer checkpoints rejected as invalid
	RecordsReplayed      int      // journal records replayed on top
	TornTail             bool     // journal ended mid-group (expected after a crash)
	BucketsScanned       int      // scrub: sealed buckets verified
	BucketsRepaired      int      // scrub: buckets rebuilt from parity
	BucketsUnrecoverable int      // scrub: buckets with no redundancy left
	Poisoned             []uint64 // addrs newly lost to unrecoverable buckets
}

// Manager owns one cluster's state directory: the rotating checkpoint files
// (checkpoint-<seq>.ckpt) and the journal that continues each checkpoint
// (journal-<seq>.wal). All methods are safe for concurrent use, though the
// cluster serializes commits itself.
type Manager struct {
	mu        sync.Mutex
	dir       string
	key       []byte
	fp        [8]byte
	blockSize int
	fsync     bool

	jf      *os.File
	chain   *integrity.Chain
	nextSeq uint64 // seq the next appended record must carry
	ckpt    uint64 // seq of the newest checkpoint written/loaded

	crashAfter int // records until the planned crash; -1 when disarmed
	tearBytes  int
	crashed    bool

	recBuf []byte // reusable encoded-record scratch (body + chain tag)
	cpEnc  *checkpointEncoder
}

// Open attaches a manager to dir, creating it if needed. key authenticates
// every file; fp pins the cluster shape; fsync controls whether commits hit
// stable storage before returning (off keeps seeded chaos sweeps fast).
func Open(dir string, key []byte, fp Fingerprint, blockSize int, fsync bool) (*Manager, error) {
	if blockSize <= 0 || blockSize > maxJournalBlockSize {
		return nil, fmt.Errorf("durable: block size %d out of range", blockSize)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: create state dir: %w", err)
	}
	return &Manager{
		dir:        dir,
		key:        append([]byte(nil), key...),
		fp:         fp.Hash(),
		blockSize:  blockSize,
		fsync:      fsync,
		crashAfter: -1,
		cpEnc:      newCheckpointEncoder(key),
	}, nil
}

func checkpointPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("checkpoint-%016x.ckpt", seq))
}

func journalPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("journal-%016x.wal", seq))
}

// checkpointSeqs lists the base sequence numbers of all checkpoint files in
// dir, ascending.
func checkpointSeqs(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		var seq uint64
		if n, _ := fmt.Sscanf(e.Name(), "checkpoint-%016x.ckpt", &seq); n == 1 {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// HasState reports whether dir already holds checkpoints. NewCluster uses
// it to refuse to clobber a recoverable directory.
func (m *Manager) HasState() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	seqs, err := checkpointSeqs(m.dir)
	return err == nil && len(seqs) > 0
}

// LastSeq returns the sequence number of the last committed record.
func (m *Manager) LastSeq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nextSeq - 1
}

// WriteCheckpoint atomically persists cp, rotates the journal to a fresh
// file based at cp.Seq, and prunes files made redundant. On return the
// checkpoint alone reproduces all state up to and including access cp.Seq.
//
// cp is only read, and only until WriteCheckpoint returns: its slices (the
// sealed bucket bytes above all) may borrow the caller's live state. In
// fsync mode the directory is synced after the checkpoint rename and again
// after the rotated journal is created, both before prune unlinks the
// fallback, so a power loss can never keep an unlink and lose the rename.
func (m *Manager) WriteCheckpoint(cp *Checkpoint) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	cp.FP = m.fp
	enc, err := m.cpEnc.encode(cp)
	if err != nil {
		return err
	}
	final := checkpointPath(m.dir, cp.Seq)
	tmp := final + ".tmp"
	if err := m.writeFile(tmp, enc); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("durable: publish checkpoint: %w", err)
	}
	if err := m.syncDir(); err != nil {
		return fmt.Errorf("durable: publish checkpoint: %w", err)
	}

	// Rotate the journal: everything up to cp.Seq is now in the checkpoint.
	if m.jf != nil {
		m.jf.Close()
		m.jf = nil
	}
	jf, err := os.Create(journalPath(m.dir, cp.Seq))
	if err != nil {
		return fmt.Errorf("durable: open journal: %w", err)
	}
	hdr, mac := encodeJournalHeader(m.key, m.fp, cp.Seq, m.blockSize)
	if _, err := jf.Write(hdr); err != nil {
		jf.Close()
		return fmt.Errorf("durable: write journal header: %w", err)
	}
	if m.fsync {
		if err := jf.Sync(); err != nil {
			jf.Close()
			return fmt.Errorf("durable: sync journal header: %w", err)
		}
	}
	if err := m.syncDir(); err != nil {
		jf.Close()
		return fmt.Errorf("durable: create journal: %w", err)
	}
	m.jf = jf
	m.chain = integrity.NewChain(m.key, mac)
	m.nextSeq = cp.Seq + 1
	m.ckpt = cp.Seq
	m.prune(cp.Seq)
	return nil
}

// prune removes files that can no longer matter: all but the newest two
// checkpoints (the newest plus one fallback), and journals older than the
// fallback checkpoint's base.
func (m *Manager) prune(newest uint64) {
	seqs, err := checkpointSeqs(m.dir)
	if err != nil {
		return
	}
	keepFrom := newest
	if len(seqs) >= 2 {
		keepFrom = seqs[len(seqs)-2]
	}
	for _, s := range seqs {
		if len(seqs) > 2 && s < keepFrom {
			os.Remove(checkpointPath(m.dir, s))
		}
	}
	ents, err := os.ReadDir(m.dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		var seq uint64
		if n, _ := fmt.Sscanf(e.Name(), "journal-%016x.wal", &seq); n == 1 && seq < keepFrom {
			os.Remove(filepath.Join(m.dir, e.Name()))
		}
	}
}

// syncDir makes the directory's entries durable in fsync mode: a rename or
// create is not on stable storage until its directory is synced.
func (m *Manager) syncDir() error {
	if !m.fsync {
		return nil
	}
	d, err := os.Open(m.dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// writeFile writes data to path, syncing when the manager is in fsync mode.
func (m *Manager) writeFile(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("durable: create %s: %w", filepath.Base(path), err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("durable: write %s: %w", filepath.Base(path), err)
	}
	if m.fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("durable: sync %s: %w", filepath.Base(path), err)
		}
	}
	return f.Close()
}

// Append commits a batch of records to the journal as one chained group
// (one group per pipeline wave; a singleton group per sequential access), so
// the HMAC chain extension is paid once per batch rather than once per
// record. Records must continue the committed sequence exactly. When a
// planned crash point falls inside the batch, the records before it are
// sealed as their own group (they were "written" before the crash), the
// group holding the crash record is torn mid-group, the manager dies, and
// ErrCrashed is returned — records before the tear are durable and
// recoverable, the torn group is not.
func (m *Manager) Append(recs []Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	if m.jf == nil {
		return errors.New("durable: append with no open journal (write a checkpoint first)")
	}
	if len(recs) == 0 {
		return nil
	}
	for i, rec := range recs {
		if rec.Seq != m.nextSeq+uint64(i) {
			return fmt.Errorf("durable: append seq %d, want %d", rec.Seq, m.nextSeq+uint64(i))
		}
	}
	if m.crashAfter >= 0 && m.crashAfter < len(recs) {
		// The crash point falls inside this batch: seal the records before it
		// as a complete (durable) group, then tear the group carrying the
		// crash record and die.
		k := m.crashAfter
		if k > 0 {
			if err := m.writeGroup(recs[:k]); err != nil {
				return err
			}
			m.nextSeq += uint64(k)
		}
		full, err := m.encodeGroup(recs[k:])
		if err != nil {
			return err
		}
		tear := m.tearBytes
		if tear > len(full) {
			tear = len(full)
		}
		m.jf.Write(full[:tear])
		m.jf.Close()
		m.jf = nil
		m.crashed = true
		return ErrCrashed
	}
	if m.crashAfter > 0 {
		m.crashAfter -= len(recs)
	}
	if err := m.writeGroup(recs); err != nil {
		return err
	}
	m.nextSeq += uint64(len(recs))
	if m.fsync {
		if err := m.jf.Sync(); err != nil {
			return fmt.Errorf("durable: sync journal: %w", err)
		}
	}
	return nil
}

// encodeGroup serializes recs as one wire group — count prefix, record
// bodies, one chain tag over all of it — reusing the manager's scratch
// buffer. Calling it advances the chain, so the group must then be written
// (or deliberately torn).
func (m *Manager) encodeGroup(recs []Record) ([]byte, error) {
	buf := append(m.recBuf[:0], 0, 0, 0, 0)
	binary.BigEndian.PutUint32(buf[:4], uint32(len(recs)))
	var err error
	for _, rec := range recs {
		if buf, err = appendRecord(buf, rec, m.blockSize); err != nil {
			return nil, err
		}
	}
	// The chain tag extends the group in place: full is the exact wire
	// group, and the scratch is kept for the next append.
	full := m.chain.AppendNext(buf, buf)
	m.recBuf = full
	return full, nil
}

// writeGroup encodes and writes one complete group.
func (m *Manager) writeGroup(recs []Record) error {
	full, err := m.encodeGroup(recs)
	if err != nil {
		return err
	}
	if _, err := m.jf.Write(full); err != nil {
		return fmt.Errorf("durable: append records %d..%d: %w", recs[0].Seq, recs[len(recs)-1].Seq, err)
	}
	return nil
}

// PlanCrash arms a crash point: after afterRecords more records are
// appended, the next record is written only up to tearBytes bytes and every
// durable operation from then on returns ErrCrashed.
func (m *Manager) PlanCrash(afterRecords, tearBytes int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if afterRecords < 0 {
		afterRecords = 0
	}
	if tearBytes < 0 {
		tearBytes = 0
	}
	m.crashAfter = afterRecords
	m.tearBytes = tearBytes
}

// Crashed reports whether a planned crash point has fired.
func (m *Manager) Crashed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashed
}

// Recover loads the newest valid checkpoint and the valid prefix of its
// journal. Invalid (torn, bit-flipped, wrong-key) checkpoints are skipped
// in favour of older ones; an absent journal means the crash hit between
// checkpoint publish and journal creation and is not an error. The manager
// does not reopen a journal for appending — the caller writes a fresh
// post-recovery checkpoint, which rotates.
func (m *Manager) Recover() (*Checkpoint, []Record, *RecoveryReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	seqs, err := checkpointSeqs(m.dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("durable: list checkpoints: %w", err)
	}
	if len(seqs) == 0 {
		return nil, nil, nil, fmt.Errorf("durable: no checkpoints in %s", m.dir)
	}
	report := &RecoveryReport{}
	var cp *Checkpoint
	for i := len(seqs) - 1; i >= 0; i-- {
		data, rerr := os.ReadFile(checkpointPath(m.dir, seqs[i]))
		if rerr != nil {
			report.CheckpointsSkipped++
			continue
		}
		cand, derr := decodeCheckpoint(m.key, data)
		if derr != nil {
			report.CheckpointsSkipped++
			continue
		}
		if cand.FP != m.fp {
			return nil, nil, nil, fmt.Errorf("durable: checkpoint %d belongs to a different cluster shape", seqs[i])
		}
		if cand.Seq != seqs[i] {
			report.CheckpointsSkipped++
			continue
		}
		cp = cand
		break
	}
	if cp == nil {
		return nil, nil, nil, errors.New("durable: no valid checkpoint survives")
	}
	report.CheckpointSeq = cp.Seq

	var recs []Record
	jdata, jerr := os.ReadFile(journalPath(m.dir, cp.Seq))
	if jerr == nil {
		hdr, jrecs, torn, derr := decodeJournal(m.key, jdata)
		if derr != nil {
			// An unreadable journal loses nothing that was acknowledged
			// with fsync off; fail closed to the checkpoint alone.
			report.TornTail = true
		} else if hdr.FP != m.fp || hdr.BaseSeq != cp.Seq || int(hdr.BlockSize) != m.blockSize {
			return nil, nil, nil, errors.New("durable: journal does not continue the recovered checkpoint")
		} else {
			recs = jrecs
			report.TornTail = torn
		}
	} else if !errors.Is(jerr, os.ErrNotExist) {
		return nil, nil, nil, fmt.Errorf("durable: read journal: %w", jerr)
	}
	report.RecordsReplayed = len(recs)
	m.ckpt = cp.Seq
	m.nextSeq = cp.Seq + uint64(len(recs)) + 1
	return cp, recs, report, nil
}

// Close releases the journal file handle. The manager is unusable after.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.jf != nil {
		err := m.jf.Close()
		m.jf = nil
		return err
	}
	return nil
}

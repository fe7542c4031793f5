package sdimm

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"sdimm/internal/fault"
	"sdimm/internal/rng"
	"sdimm/internal/telemetry"
)

// ---------------------------------------------------------------------------
// Worker pool unit tests.
// ---------------------------------------------------------------------------

func TestWorkerPoolFIFOPerWorker(t *testing.T) {
	p := newWorkerPool(3, 8, 16)
	defer p.close()
	var mu sync.Mutex
	var wg sync.WaitGroup
	got := make([][]int, 3)
	for round := 0; round < 50; round++ {
		for w := 0; w < 3; w++ {
			w, round := w, round
			p.submitWG(w, &wg, func() {
				mu.Lock()
				got[w] = append(got[w], round)
				mu.Unlock()
			})
		}
	}
	wg.Wait()
	for w := 0; w < 3; w++ {
		for i, v := range got[w] {
			if v != i {
				t.Fatalf("worker %d executed out of order: %v", w, got[w])
			}
		}
	}
}

func TestWorkerPoolParallelismOne(t *testing.T) {
	// With parallelism 1, tasks must never overlap even across workers.
	p := newWorkerPool(4, 1, 4)
	defer p.close()
	var active, maxActive int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		w := i % 4
		p.submitWG(w, &wg, func() {
			mu.Lock()
			active++
			if active > maxActive {
				maxActive = active
			}
			mu.Unlock()
			mu.Lock()
			active--
			mu.Unlock()
		})
	}
	wg.Wait()
	if maxActive != 1 {
		t.Fatalf("parallelism 1 pool had %d overlapping tasks", maxActive)
	}
}

func TestWorkerPoolCloseIdempotent(t *testing.T) {
	p := newWorkerPool(2, 2, 2)
	n := 0
	var wg sync.WaitGroup
	p.submitWG(0, &wg, func() { n++ })
	wg.Wait()
	p.close()
	p.close() // second close must not panic
	if n != 1 {
		t.Fatalf("task ran %d times", n)
	}
}

// ---------------------------------------------------------------------------
// Determinism-equivalence harness.
// ---------------------------------------------------------------------------

// engineState is everything the equivalence suite compares bit-for-bit:
// every read payload, the final position map, per-SDIMM stash occupancy,
// the full telemetry snapshot, and the per-SDIMM health/link accounting.
type engineState struct {
	Results   []BatchResult
	Errors    []string
	Positions map[uint64]uint64
	StashLens []int
	Telemetry telemetry.Snapshot
	Health    []SDIMMHealth
}

func captureState(results []BatchResult, pos map[uint64]uint64, lens []int,
	reg *telemetry.Registry, h ClusterHealth) engineState {
	st := engineState{
		Results:   results,
		Positions: pos,
		StashLens: lens,
		Telemetry: reg.Snapshot(),
		Health:    h.SDIMMs,
	}
	for _, r := range results {
		if r.Err != nil {
			st.Errors = append(st.Errors, r.Err.Error())
		}
	}
	// Errors compare as strings; the structs carry the same text.
	for i := range st.Results {
		st.Results[i].Err = nil
	}
	return st
}

func diffState(t *testing.T, tag string, a, b engineState) {
	t.Helper()
	if !reflect.DeepEqual(a.Results, b.Results) {
		t.Errorf("%s: read payloads diverged", tag)
	}
	if !reflect.DeepEqual(a.Errors, b.Errors) {
		t.Errorf("%s: errors diverged: %v vs %v", tag, a.Errors, b.Errors)
	}
	if !reflect.DeepEqual(a.Positions, b.Positions) {
		t.Errorf("%s: final position maps diverged (%d vs %d entries)",
			tag, len(a.Positions), len(b.Positions))
	}
	if !reflect.DeepEqual(a.StashLens, b.StashLens) {
		t.Errorf("%s: stash occupancy diverged: %v vs %v", tag, a.StashLens, b.StashLens)
	}
	if !reflect.DeepEqual(a.Telemetry, b.Telemetry) {
		t.Errorf("%s: telemetry snapshots diverged:\n--- a ---\n%s\n--- b ---\n%s",
			tag, a.Telemetry.String(), b.Telemetry.String())
	}
	if !reflect.DeepEqual(a.Health, b.Health) {
		t.Errorf("%s: health accounting diverged:\n%+v\nvs\n%+v", tag, a.Health, b.Health)
	}
}

// pipelineWorkload builds a deterministic mixed read/write op stream with
// enough address reuse to exercise the wave-breaking rule.
func pipelineWorkload(n int, space uint64) []BatchOp {
	r := rng.Stream(7, "pipeline-workload", 0)
	ops := make([]BatchOp, n)
	for i := range ops {
		addr := r.Uint64n(space)
		if r.Bool(0.2) && i > 0 {
			addr = ops[i-1].Addr // forced repeat: wave must break here
		}
		ops[i] = BatchOp{Addr: addr}
		if r.Bool(0.5) {
			ops[i].Write = true
			ops[i].Data = []byte(fmt.Sprintf("op%04d@%d", i, addr))
		}
	}
	return ops
}

// runPipeline executes the workload through a fresh cluster + pipeline and
// captures the full state fingerprint. mid, when non-nil, runs between the
// two halves of the workload (fault scheduling hooks).
func runPipeline(t *testing.T, par, window int, faults *fault.Injector,
	mid func(*Cluster)) engineState {
	t.Helper()
	reg := telemetry.NewRegistry()
	c, err := NewCluster(ClusterOptions{
		SDIMMs:    4,
		Levels:    10,
		Key:       []byte("equivalence-key"),
		Seed:      23,
		Faults:    faults,
		Retry:     fault.RetryPolicy{MaxAttempts: 4, Sleep: nop},
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := c.Pipeline(PipelineOptions{Window: window, Parallelism: par})
	defer p.Close()
	ops := pipelineWorkload(240, 60)
	half := len(ops) / 2
	results := p.Do(ops[:half])
	if mid != nil {
		mid(c)
	}
	results = append(results, p.Do(ops[half:])...)
	return captureState(results, c.Positions(), c.StashLens(), reg, c.Health())
}

// TestPipelineWindowOneMatchesSequential pins the pipeline's semantics to
// the sequential Read/Write path: with Window 1 every wave is one access,
// and the RNG draw order, commit order, and append order are identical, so
// the two engines must agree bit-for-bit on everything observable.
func TestPipelineWindowOneMatchesSequential(t *testing.T) {
	ops := pipelineWorkload(240, 60)

	regSeq := telemetry.NewRegistry()
	cs, err := NewCluster(ClusterOptions{
		SDIMMs: 4, Levels: 10, Key: []byte("equivalence-key"), Seed: 23, Telemetry: regSeq,
	})
	if err != nil {
		t.Fatal(err)
	}
	seqResults := make([]BatchResult, len(ops))
	for i, op := range ops {
		if op.Write {
			seqResults[i].Err = cs.Write(op.Addr, op.Data)
		} else {
			seqResults[i].Data, seqResults[i].Err = cs.Read(op.Addr)
		}
	}
	seq := captureState(seqResults, cs.Positions(), cs.StashLens(), regSeq, cs.Health())

	regPipe := telemetry.NewRegistry()
	cp, err := NewCluster(ClusterOptions{
		SDIMMs: 4, Levels: 10, Key: []byte("equivalence-key"), Seed: 23, Telemetry: regPipe,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := cp.Pipeline(PipelineOptions{Window: 1, Parallelism: 1})
	defer p.Close()
	pipe := captureState(p.Do(ops), cp.Positions(), cp.StashLens(), regPipe, cp.Health())

	diffState(t, "window-1 vs sequential", seq, pipe)
}

// TestPipelineParallelismEquivalence is the core determinism claim: a
// Parallelism: 1 pipeline and Parallelism: N pipelines produce bitwise
// identical results, position maps, stashes, telemetry, and health — for
// perfect links and for deterministic transient fault injection.
func TestPipelineParallelismEquivalence(t *testing.T) {
	for _, window := range []int{4, 8} {
		for _, faulty := range []bool{false, true} {
			mkInjector := func() *fault.Injector {
				if !faulty {
					return nil
				}
				return fault.NewInjector(fault.Config{
					Seed: 99, BitFlip: 0.01, Drop: 0.01, Duplicate: 0.01, Stall: 0.005,
				})
			}
			base := runPipeline(t, 1, window, mkInjector(), nil)
			if len(base.Positions) == 0 {
				t.Fatalf("window %d: baseline run touched no addresses", window)
			}
			for _, par := range []int{2, 4, 8} {
				tag := fmt.Sprintf("window=%d faulty=%v parallelism=%d", window, faulty, par)
				got := runPipeline(t, par, window, mkInjector(), nil)
				diffState(t, tag, base, got)
			}
		}
	}
}

// TestPipelineEquivalenceAcrossFailStop fail-stops one SDIMM between two
// batches: detection, routing-around, and the health bookkeeping must stay
// bit-identical at every parallelism.
func TestPipelineEquivalenceAcrossFailStop(t *testing.T) {
	run := func(par int) engineState {
		in := fault.NewInjector(fault.Config{Seed: 5})
		return runPipeline(t, par, 6, in, func(*Cluster) { in.FailStop(2) })
	}
	base := run(1)
	found := false
	for _, h := range base.Health {
		if h.State == fault.Failed {
			found = true
		}
	}
	if !found {
		t.Fatal("fail-stop scenario never killed an SDIMM")
	}
	for _, par := range []int{2, 4} {
		diffState(t, fmt.Sprintf("failstop parallelism=%d", par), base, run(par))
	}
}

// TestPipelineReadYourWrites checks plain correctness of the batched path:
// later reads in the same Do see earlier writes (waves break on repeats).
func TestPipelineReadYourWrites(t *testing.T) {
	c := newCluster(t, 4)
	p := c.Pipeline(PipelineOptions{Window: 8, Parallelism: 4})
	defer p.Close()
	var ops []BatchOp
	for i := uint64(0); i < 30; i++ {
		ops = append(ops, BatchOp{Addr: i, Write: true, Data: []byte(fmt.Sprintf("v%d", i))})
	}
	for i := uint64(0); i < 30; i++ {
		ops = append(ops, BatchOp{Addr: i})
	}
	res := p.Do(ops)
	for i := uint64(0); i < 30; i++ {
		r := res[30+i]
		if r.Err != nil {
			t.Fatalf("read %d: %v", i, r.Err)
		}
		want := fmt.Sprintf("v%d", i)
		if string(r.Data[:len(want)]) != want {
			t.Fatalf("read %d = %q, want %q", i, r.Data[:len(want)], want)
		}
	}
	// Same-wave write→read on one address: the repeat breaks the wave, so
	// the read must observe the committed write.
	res = p.Do([]BatchOp{
		{Addr: 500, Write: true, Data: []byte("fresh")},
		{Addr: 500},
	})
	if res[1].Err != nil || string(res[1].Data[:5]) != "fresh" {
		t.Fatalf("same-batch read-your-write: %q %v", res[1].Data[:5], res[1].Err)
	}
}

// TestPipelineOversizedWriteFails mirrors TestClusterOversizedWrite on the
// batched path.
func TestPipelineOversizedWriteFails(t *testing.T) {
	c := newCluster(t, 2)
	p := c.Pipeline(PipelineOptions{})
	defer p.Close()
	res := p.Do([]BatchOp{{Addr: 1, Write: true, Data: bytes.Repeat([]byte("x"), 65)}})
	if res[0].Err == nil {
		t.Fatal("oversized batched write accepted")
	}
}

// ---------------------------------------------------------------------------
// Split cluster fan-out equivalence.
// ---------------------------------------------------------------------------

// runSplit executes a deterministic workload on a Split cluster with the
// given fan-out parallelism, optionally failing a shard halfway through.
func runSplit(t *testing.T, par int, parity bool, failShard int) engineState {
	t.Helper()
	reg := telemetry.NewRegistry()
	c, err := NewSplitCluster(SplitClusterOptions{
		SDIMMs:      4,
		Levels:      10,
		Key:         []byte("split-equivalence-key"),
		Seed:        13,
		Parity:      parity,
		Parallelism: par,
		Telemetry:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := rng.Stream(11, "split-workload", 0)
	const n = 240
	results := make([]BatchResult, n)
	for i := 0; i < n; i++ {
		if i == n/2 && failShard >= 0 {
			c.FailShard(failShard)
		}
		addr := r.Uint64n(70)
		if r.Bool(0.5) {
			results[i].Err = c.Write(addr, []byte(fmt.Sprintf("s%04d@%d", i, addr)))
		} else {
			results[i].Data, results[i].Err = c.Read(addr)
		}
	}
	return captureState(results, c.Positions(), c.StashLens(), reg, c.Health())
}

// TestSplitParallelismEquivalence: the Split fan-out path must evolve
// bit-identically at any parallelism, with and without a parity member,
// including across a mid-run shard loss with XOR reconstruction.
func TestSplitParallelismEquivalence(t *testing.T) {
	cases := []struct {
		name      string
		parity    bool
		failShard int
	}{
		{"plain", false, -1},
		{"parity", true, -1},
		{"parity-shard-loss", true, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runSplit(t, 1, tc.parity, tc.failShard)
			if len(base.Positions) == 0 {
				t.Fatal("baseline split run touched no addresses")
			}
			if tc.failShard >= 0 {
				recon := base.Telemetry.Counters["cluster.reconstructions"]
				if recon == 0 {
					t.Fatal("shard-loss scenario never reconstructed")
				}
			}
			for _, par := range []int{2, 4, 8} {
				diffState(t, fmt.Sprintf("%s parallelism=%d", tc.name, par),
					base, runSplit(t, par, tc.parity, tc.failShard))
			}
		})
	}
}

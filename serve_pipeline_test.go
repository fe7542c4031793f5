package sdimm

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdimm/internal/durable"
	"sdimm/internal/fault"
	"sdimm/internal/rng"
	"sdimm/internal/telemetry"
)

// serveCluster builds a small cluster + streaming pipeline for these tests.
func serveCluster(t *testing.T, reg *telemetry.Registry, opts PipelineOptions) (*Cluster, *Pipeline, chan *AsyncOp, *sync.WaitGroup) {
	t.Helper()
	c, err := NewCluster(ClusterOptions{
		SDIMMs: 4, Levels: 10, Key: []byte("serve-key"), Seed: 23, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := c.Pipeline(opts)
	in := make(chan *AsyncOp, 64)
	var done sync.WaitGroup
	done.Add(1)
	go func() {
		defer done.Done()
		p.Serve(in)
	}()
	t.Cleanup(p.Close)
	return c, p, in, &done
}

// TestPipelineServePartialWaveNoStall is the latent-stall regression test:
// three ops on a Window-8 pipeline, with the channel left open, must retire
// after the fill timeout instead of waiting forever for five peers that
// never come.
func TestPipelineServePartialWaveNoStall(t *testing.T) {
	_, _, in, done := serveCluster(t, nil, PipelineOptions{Window: 8})
	ops := make([]*AsyncOp, 3)
	for i := range ops {
		ops[i] = NewAsyncOp(BatchOp{Addr: uint64(10 + i), Write: true,
			Data: []byte(fmt.Sprintf("partial-%d", i))})
		in <- ops[i]
	}
	deadline := time.After(5 * time.Second) // generous; expected ~FillTimeout
	for i, a := range ops {
		select {
		case r := <-a.Done:
			if r.Err != nil {
				t.Fatalf("op %d: %v", i, r.Err)
			}
		case <-deadline:
			t.Fatalf("op %d stalled: partial wave never launched", i)
		}
	}
	close(in)
	done.Wait()
}

// TestPipelineServeMatchesSequential pins the streaming front to the
// sequential engine: a serial client (submit, wait, submit) produces
// one-op waves whose RNG draw order, commit order, and append order are
// identical to bare Read/Write calls, so every observable — payloads,
// position map, stashes, telemetry, health — must agree bitwise.
func TestPipelineServeMatchesSequential(t *testing.T) {
	ops := pipelineWorkload(160, 48)

	regSeq := telemetry.NewRegistry()
	cs, err := NewCluster(ClusterOptions{
		SDIMMs: 4, Levels: 10, Key: []byte("serve-key"), Seed: 23, Telemetry: regSeq,
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

	regSrv := telemetry.NewRegistry()
	c, _, in, done := serveCluster(t, regSrv, PipelineOptions{
		Window: 8, FillTimeout: -1, // serial client: launch immediately
	})
	srvResults := make([]BatchResult, len(ops))
	for i, op := range ops {
		a := NewAsyncOp(op)
		in <- a
		srvResults[i] = <-a.Done
	}
	close(in)
	done.Wait()
	srv := captureState(srvResults, c.Positions(), c.StashLens(), regSrv, c.Health())

	diffState(t, "serve(serial) vs sequential", seq, srv)
}

// TestPipelineServeConcurrentSmoke hammers Serve from several goroutines
// with disjoint address ranges (run under -race): every write must be
// acknowledged and every subsequent read must observe it.
func TestPipelineServeConcurrentSmoke(t *testing.T) {
	_, _, in, done := serveCluster(t, nil, PipelineOptions{Window: 8})
	const clients, opsPer = 6, 40
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g * 100)
			for i := 0; i < opsPer; i++ {
				addr := base + uint64(i%10)
				want := []byte(fmt.Sprintf("g%d-i%d", g, i))
				w := NewAsyncOp(BatchOp{Addr: addr, Write: true, Data: want})
				in <- w
				if r := <-w.Done; r.Err != nil {
					errs <- fmt.Errorf("client %d write %d: %v", g, i, r.Err)
					return
				}
				rd := NewAsyncOp(BatchOp{Addr: addr})
				in <- rd
				r := <-rd.Done
				if r.Err != nil {
					errs <- fmt.Errorf("client %d read %d: %v", g, i, r.Err)
					return
				}
				if string(r.Data[:len(want)]) != string(want) {
					errs <- fmt.Errorf("client %d addr %d: read %q want %q",
						g, addr, r.Data[:len(want)], want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(in)
	done.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPipelineServeCrashFailsPending verifies the write-ahead contract on
// the streaming path: once the planned crash point trips, every later op
// fails with durable.ErrCrashed and Serve still answers everything before
// returning.
func TestPipelineServeCrashFailsPending(t *testing.T) {
	c, err := NewCluster(ClusterOptions{
		SDIMMs: 4, Levels: 10, Key: []byte("serve-key"), Seed: 23,
		Durability: &DurabilityOptions{Dir: t.TempDir(), Interval: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.PlanCrash(20, 0); err != nil {
		t.Fatal(err)
	}
	p := c.Pipeline(PipelineOptions{Window: 4})
	defer p.Close()
	in := make(chan *AsyncOp, 16)
	var done sync.WaitGroup
	done.Add(1)
	go func() {
		defer done.Done()
		p.Serve(in)
	}()
	sawCrash := false
	for i := 0; i < 200 && !sawCrash; i++ {
		a := NewAsyncOp(BatchOp{Addr: uint64(i % 16), Write: true,
			Data: []byte(fmt.Sprintf("pre-crash-%d", i))})
		in <- a
		if r := <-a.Done; r.Err != nil {
			if !errors.Is(r.Err, durable.ErrCrashed) {
				t.Fatalf("op %d failed with %v, want ErrCrashed", i, r.Err)
			}
			sawCrash = true
		}
	}
	if !sawCrash {
		t.Fatal("planned crash never tripped")
	}
	// Ops submitted after the crash must be answered (with the crash error),
	// not dropped.
	post := NewAsyncOp(BatchOp{Addr: 3})
	in <- post
	if r := <-post.Done; !errors.Is(r.Err, durable.ErrCrashed) {
		t.Fatalf("post-crash op = %v, want ErrCrashed", r.Err)
	}
	close(in)
	done.Wait()
}

// TestPipelineServeFillWaitHoldsNoAnswers is the fill-hold regression test:
// an op arriving while an earlier wave is in flight must not hold that
// wave's answers behind the fill timeout. The second op is pushed into the
// channel from the link tap, on the first op's first frame, so it is queued
// before the first wave retires; the first answer must follow within a
// small fraction of the (deliberately long) fill timeout.
func TestPipelineServeFillWaitHoldsNoAnswers(t *testing.T) {
	const fill = 300 * time.Millisecond
	in := make(chan *AsyncOp, 4)
	second := NewAsyncOp(BatchOp{Addr: 2, Write: true, Data: []byte("second")})
	arrived := make(chan time.Time, 1)
	var armed atomic.Bool
	c, err := NewCluster(ClusterOptions{
		SDIMMs: 4, Levels: 10, Key: []byte("serve-key"), Seed: 23,
		LinkTap: func(int, fault.Direction, int, []byte) {
			if armed.CompareAndSwap(true, false) {
				arrived <- time.Now()
				in <- second
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := c.Pipeline(PipelineOptions{Window: 8, FillTimeout: fill})
	defer p.Close()
	var done sync.WaitGroup
	done.Add(1)
	go func() {
		defer done.Done()
		p.Serve(in)
	}()
	defer func() {
		close(in)
		done.Wait()
	}()

	first := NewAsyncOp(BatchOp{Addr: 1, Write: true, Data: []byte("first")})
	armed.Store(true)
	in <- first
	if r := <-first.Done; r.Err != nil {
		t.Fatalf("first op: %v", r.Err)
	}
	if hold := time.Since(<-arrived); hold > fill/3 {
		t.Fatalf("first op answered %v after the second arrived: held behind the %v fill wait", hold, fill)
	}
	if r := <-second.Done; r.Err != nil {
		t.Fatalf("second op: %v", r.Err)
	}
}

// TestPipelineServeAnswersInArrivalOrder pins the contract Do relies on:
// Serve answers ops in exactly their arrival order, so ops may share one
// Done channel. One producer streams a seeded mix — reads, writes, oversize
// writes that fail at scheduling, repeated addresses — at Windows 1..8,
// pausing now and then so partial windows and fill-timer fires interleave
// with full ones. Every answer must match a per-address model of the same
// sequence. With a planned crash, every answer from the first crash error
// on must be a failure and every answer before it must still match.
func TestPipelineServeAnswersInArrivalOrder(t *testing.T) {
	const n = 240
	for _, crash := range []bool{false, true} {
		for window := 1; window <= 8; window++ {
			t.Run(fmt.Sprintf("crash=%v/window=%d", crash, window), func(t *testing.T) {
				opts := ClusterOptions{
					SDIMMs: 4, Levels: 10, Key: []byte("order-key"), Seed: uint64(window),
				}
				if crash {
					opts.Durability = &DurabilityOptions{Dir: t.TempDir(), Interval: 32}
				}
				c, err := NewCluster(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				if crash {
					if err := c.PlanCrash(60+11*window, 5); err != nil {
						t.Fatal(err)
					}
				}
				bs := c.BlockSize()

				r := rng.Stream(uint64(window), "serve-arrival-order", 0)
				ops := make([]BatchOp, n)
				want := make([]BatchResult, n)
				model := map[uint64][]byte{}
				for i := range ops {
					addr := r.Uint64n(12)
					if i > 0 && r.Bool(0.25) {
						addr = ops[i-1].Addr // repeat: the wave must break here
					}
					ops[i] = BatchOp{Addr: addr}
					switch k := r.Intn(10); {
					case k == 0:
						ops[i].Write, ops[i].Data = true, make([]byte, bs+1)
						want[i].Err = errors.New("oversize")
					case k < 5:
						ops[i].Write, ops[i].Data = true, []byte(fmt.Sprintf("w%d-op%d", window, i))
						blk := make([]byte, bs)
						copy(blk, ops[i].Data)
						model[addr] = blk
					default:
						want[i].Data = model[addr]
						if want[i].Data == nil {
							want[i].Data = make([]byte, bs)
						}
					}
				}

				p := c.Pipeline(PipelineOptions{Window: window, FillTimeout: 50 * time.Microsecond})
				defer p.Close()
				in := make(chan *AsyncOp, 2*window)
				answers := make(chan BatchResult, n)
				go func() {
					pace := rng.Stream(uint64(window), "serve-arrival-pace", 0)
					for _, op := range ops {
						in <- &AsyncOp{Op: op, Done: answers}
						if pace.Bool(0.05) {
							time.Sleep(100 * time.Microsecond)
						}
					}
					close(in)
				}()
				p.Serve(in)

				crashedAt := -1
				for i := range ops {
					got := <-answers
					if crashedAt < 0 && errors.Is(got.Err, durable.ErrCrashed) {
						crashedAt = i
					}
					if crashedAt >= 0 {
						if got.Err == nil {
							t.Fatalf("op %d answered OK after the crash answer at op %d", i, crashedAt)
						}
						continue
					}
					if (got.Err != nil) != (want[i].Err != nil) {
						t.Fatalf("op %d (%+v): err %v, want error %v", i, ops[i].Addr, got.Err, want[i].Err != nil)
					}
					if !bytes.Equal(got.Data, want[i].Data) {
						t.Fatalf("op %d (addr %d): answer out of order: got %.12q want %.12q",
							i, ops[i].Addr, got.Data, want[i].Data)
					}
				}
				if crash != (crashedAt >= 0) {
					t.Fatalf("crash planned %v, crash answer at op %d", crash, crashedAt)
				}
			})
		}
	}
}

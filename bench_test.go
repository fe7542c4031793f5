// Benchmarks regenerating the paper's evaluation, one per table/figure.
// Each benchmark runs the corresponding experiment at a reduced scale
// (subset of workloads, smaller windows) and reports the headline numbers
// as custom metrics; cmd/sdimm-bench runs the same drivers at full scale.
//
// Paper-vs-measured values for every figure are recorded in EXPERIMENTS.md.
package sdimm

import (
	"fmt"
	"testing"

	"sdimm/internal/config"
	"sdimm/internal/experiments"
	"sdimm/internal/queueing"
	"sdimm/internal/sim"
)

// benchOptions scales the experiments for benchmarking.
func benchOptions() experiments.Options {
	return experiments.Options{
		Warmup:    200,
		Measure:   400,
		Levels:    24,
		Seed:      1,
		Workloads: []string{"milc", "gromacs", "GemsFDTD"},
	}
}

func BenchmarkFig6_FreecursiveSlowdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig6(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.ColGeoMean("slowdown-1ch"), "slowdown-1ch")
		b.ReportMetric(t.ColGeoMean("slowdown-2ch"), "slowdown-2ch")
		b.ReportMetric(t.ColGeoMean("accessORAM/miss"), "accessORAM/miss")
	}
}

func BenchmarkFig8_SingleChannel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig8(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.ColGeoMean("independent"), "indep2-normtime")
		b.ReportMetric(t.ColGeoMean("split"), "split2-normtime")
	}
}

func BenchmarkFig9_DoubleChannel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig9(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.ColGeoMean("independent"), "indep4-normtime")
		b.ReportMetric(t.ColGeoMean("split"), "split4-normtime")
		b.ReportMetric(t.ColGeoMean("indep-split"), "indepsplit-normtime")
	}
}

func BenchmarkFig10_Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig10(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		fc1 := t.ColGeoMean("freecursive-1ch")
		sp1 := t.ColGeoMean("split2-1ch")
		fc2 := t.ColGeoMean("freecursive-2ch")
		is2 := t.ColGeoMean("indep-split-2ch")
		b.ReportMetric(fc1/sp1, "energy-gain-1ch")
		b.ReportMetric(fc2/is2, "energy-gain-2ch")
	}
}

func BenchmarkFig11_LayerSweep(b *testing.B) {
	o := benchOptions()
	o.Workloads = []string{"milc"}
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig11(o, []int{20, 24, 28})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.ColGeoMean("L20"), "normtime-L20")
		b.ReportMetric(t.ColGeoMean("L28"), "normtime-L28")
		b.ReportMetric(t.ColGeoMean("L28-nc"), "normtime-L28-nocache")
	}
}

func BenchmarkFig13a_RandomWalk(b *testing.B) {
	w := queueing.DefaultWalk()
	for i := 0; i < b.N; i++ {
		p16, err := w.OverflowProbability(100_000, 16)
		if err != nil {
			b.Fatal(err)
		}
		p1024, err := w.OverflowProbability(800_000, 1024)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(p16, "P(>16)@100K")
		b.ReportMetric(p1024, "P(>1024)@800K")
	}
}

func BenchmarkFig13b_MM1K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig13b(nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		// Report the paper's point: p = 0.25 with a small queue is safe.
		v, err := queueing.MM1KFullProbability(0.25, 16)
		if err != nil {
			b.Fatal(err)
		}
		_ = series
		b.ReportMetric(v, "P(full)p=.25,K=16")
	}
}

func BenchmarkOffDIMM_Traffic(b *testing.B) {
	o := benchOptions()
	o.Workloads = []string{"milc"}
	for i := 0; i < b.N; i++ {
		t, err := experiments.OffDIMM(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.ColGeoMean("indep-2"), "offdimm-frac-indep2")
		b.ReportMetric(t.ColGeoMean("split-2"), "offdimm-frac-split2")
		b.ReportMetric(t.ColGeoMean("indep-4"), "offdimm-frac-indep4")
	}
}

func BenchmarkLatency_Reduction(b *testing.B) {
	o := benchOptions()
	o.Workloads = []string{"GemsFDTD"}
	for i := 0; i < b.N; i++ {
		t, err := experiments.Latency(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.ColGeoMean("split-4"), "latency-ratio-split4")
		b.ReportMetric(t.ColGeoMean("indep-split"), "latency-ratio-indepsplit")
	}
}

func BenchmarkLowPower_PerfDrop(b *testing.B) {
	o := benchOptions()
	o.Workloads = []string{"milc"}
	for i := 0; i < b.N; i++ {
		t, err := experiments.LowPower(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.ColGeoMean("time-ratio"), "lowpower-time-ratio")
		b.ReportMetric(t.ColGeoMean("bg-energy-ratio"), "lowpower-bg-ratio")
	}
}

// Ablation benches for the design choices DESIGN.md calls out.

func BenchmarkAblation_PLB(b *testing.B) {
	for _, plbKB := range []int{8, 64, 512} {
		plbKB := plbKB
		b.Run(size(plbKB), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := config.Default(config.Freecursive, 1)
				cfg.ORAM.Levels = 24
				cfg.ORAM.PLBBytes = plbKB << 10
				cfg.WarmupAccesses = 200
				cfg.MeasureAccesses = 400
				res, err := sim.Run(cfg, "milc")
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.AccessesPerMiss, "accessORAM/miss")
				b.ReportMetric(res.CyclesPerMiss(), "cycles/miss")
			}
		})
	}
}

func BenchmarkAblation_ORAMCacheDepth(b *testing.B) {
	for _, cached := range []int{0, 4, 7} {
		cached := cached
		b.Run(size(cached), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := config.Default(config.Freecursive, 1)
				cfg.ORAM.Levels = 24
				cfg.ORAM.CachedLevels = cached
				cfg.WarmupAccesses = 200
				cfg.MeasureAccesses = 400
				res, err := sim.Run(cfg, "milc")
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.CyclesPerMiss(), "cycles/miss")
			}
		})
	}
}

func BenchmarkAblation_Layout(b *testing.B) {
	// Subtree packing vs naive single-level "packing" (subtree height 1):
	// the row-buffer locality of the packed layout shows up as fewer
	// activates per access and lower cycles per miss.
	for _, subtree := range []int{1, 4} {
		subtree := subtree
		b.Run(size(subtree), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := config.Default(config.Freecursive, 1)
				cfg.ORAM.Levels = 24
				cfg.ORAM.SubtreeLevels = subtree
				cfg.WarmupAccesses = 200
				cfg.MeasureAccesses = 400
				res, err := sim.Run(cfg, "milc")
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.CyclesPerMiss(), "cycles/miss")
			}
		})
	}
}

func BenchmarkAblation_DrainProbability(b *testing.B) {
	for _, p := range []float64{0.05, 0.25, 0.75} {
		p := p
		b.Run(prob(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := config.Default(config.Independent, 1)
				cfg.ORAM.Levels = 24
				cfg.ORAM.DrainProb = p
				cfg.WarmupAccesses = 200
				cfg.MeasureAccesses = 400
				res, err := sim.Run(cfg, "milc")
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.CyclesPerMiss(), "cycles/miss")
				b.ReportMetric(float64(res.Backend.ExtraDrains), "extra-drains")
			}
		})
	}
}

func size(n int) string { return "n=" + itoa(n) }

func prob(p float64) string {
	switch {
	case p < 0.1:
		return "p=low"
	case p < 0.5:
		return "p=mid"
	default:
		return "p=high"
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkClusterAccess drives the batched access pipeline over an
// 8-SDIMM Independent cluster at increasing worker counts. The work per
// access is identical at every parallelism (results are bit-identical by
// construction), so accesses/sec isolates the fan-out overhead and — on
// multi-core hosts — the speedup. cmd/sdimm-bench -exp parbench runs the
// same loop and writes BENCH_parallel.json with the speedup gate.
func BenchmarkClusterAccess(b *testing.B) {
	for _, par := range []int{1, 2, 4, 8} {
		par := par
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			c, err := NewCluster(ClusterOptions{SDIMMs: 8, Levels: 12, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			pipe := c.Pipeline(PipelineOptions{Window: 8, Parallelism: par})
			defer pipe.Close()
			ops := make([]BatchOp, 64)
			payload := make([]byte, 64)
			for i := range ops {
				ops[i] = BatchOp{Addr: uint64(i), Write: i%2 == 0, Data: payload}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, r := range pipe.Do(ops) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
			b.ReportMetric(float64(b.N*len(ops))/b.Elapsed().Seconds(), "accesses/s")
		})
	}
}

// BenchmarkCoTenant evaluates the co-residency claim of Section III-A: a
// non-secure VM's memory latency while sharing with a secure tenant,
// normalized to running alone.
func BenchmarkCoTenant(b *testing.B) {
	o := benchOptions()
	o.Workloads = []string{"milc"}
	for i := 0; i < b.N; i++ {
		t, err := experiments.CoTenant(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.ColGeoMean("with-freecursive"), "tenant-lat-x-freecursive")
		b.ReportMetric(t.ColGeoMean("with-indep-sdimm"), "tenant-lat-x-sdimm")
	}
}

// BenchmarkOverflow_InVivo reports the empirical stash/transfer-queue
// maxima of the Independent protocol (the Section IV-C models, measured).
func BenchmarkOverflow_InVivo(b *testing.B) {
	o := benchOptions()
	o.Workloads = []string{"milc"}
	for i := 0; i < b.N; i++ {
		t, err := experiments.Overflow(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.ColGeoMean("stash-peak"), "stash-peak")
		b.ReportMetric(t.ColGeoMean("transfer-peak"), "transfer-peak")
	}
}

// BenchmarkAblation_DDR4 swaps the DDR3-1600 channel for DDR4-2400 (the
// paper's footnote-1 scenario) and reports the baseline cost per miss.
func BenchmarkAblation_DDR4(b *testing.B) {
	for _, gen := range []string{"ddr3", "ddr4"} {
		gen := gen
		b.Run(gen, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := config.Default(config.Freecursive, 1)
				cfg.ORAM.Levels = 24
				if gen == "ddr4" {
					cfg.Timing = config.DDR42400()
				}
				cfg.WarmupAccesses = 200
				cfg.MeasureAccesses = 400
				res, err := sim.Run(cfg, "milc")
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.CyclesPerMiss(), "cycles/miss")
			}
		})
	}
}

// BenchmarkForceCheckpoint times one periodic checkpoint at the sdimm-serve
// default shape (4 SDIMMs, 12 levels, 128 B blocks) with ring eviction
// A=4: capture from the stores, encode, HMAC, write, journal rotation and
// prune, with fsync off as sdimm-serve runs it. The tree is filled first so
// every bucket the workload can touch is materialized.
func BenchmarkForceCheckpoint(b *testing.B) {
	c, err := NewCluster(ClusterOptions{SDIMMs: 4, Levels: 12, BlockSize: 128, RingFlushInterval: 4, Seed: 1,
		Durability: &DurabilityOptions{Dir: b.TempDir(), Interval: 1 << 30}})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	pipe := c.Pipeline(PipelineOptions{Window: 8})
	ops := make([]BatchOp, 4096)
	payload := make([]byte, 128)
	for i := range ops {
		ops[i] = BatchOp{Addr: uint64(i % 1024), Write: true, Data: payload}
	}
	for _, r := range pipe.Do(ops) {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	pipe.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.ForceCheckpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

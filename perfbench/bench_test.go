package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"sdimm/internal/queueing"
	"sdimm/internal/rng"
	"sdimm/internal/serve"
	"sdimm/internal/telemetry"
)

func TestScheduleIsPureFunctionOfSeed(t *testing.T) {
	for _, spec := range serveWorkloads {
		a := schedule(spec, 7, 2*time.Second)
		b := schedule(spec, 7, 2*time.Second)
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two schedules from seed 7 differ (%d vs %d ops)", spec.name, len(a), len(b))
		}
		if c := schedule(spec, 8, 2*time.Second); reflect.DeepEqual(a, c) {
			t.Fatalf("%s: seeds 7 and 8 gave the same schedule", spec.name)
		}
		for i, o := range a {
			if o.addr >= spec.space || (i > 0 && o.at < a[i-1].at) || o.at >= 2*time.Second {
				t.Fatalf("%s: op %d = %+v out of range or out of order", spec.name, i, o)
			}
		}
	}
}

func TestPoissonOffersExactlyRateTimesDuration(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		if n := len(schedule(steadyPath, seed, 3*time.Second)); n != 3000 {
			t.Fatalf("seed %d: %d arrivals in 3s at 1k/s", seed, n)
		}
	}
}

func TestMMPPRealisedMeanRateMatchesConfigured(t *testing.T) {
	m, slot := overloadMMPP, overloadRingDurable.slot
	dur := 60 * time.Second
	want := m.MeanRate() / slot.Seconds()
	if math.Abs(want-overloadRingDurable.rate)/overloadRingDurable.rate > 1e-9 {
		t.Fatalf("configured MMPP mean %.1f/s, workload rate %.1f/s", want, overloadRingDurable.rate)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		got := float64(len(mmppArrivals(m, slot, dur, rng.New(seed)))) / dur.Seconds()
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("seed %d: realised %.1f arrivals/s, configured mean %.1f", seed, got, want)
		}
	}
	// A burstier process at the same mean must realise the same mean too.
	bursty := queueing.MMPP{LowRate: 0.05, HighRate: 0.9, PUp: 0.001, PDown: 0.0024}
	want = bursty.MeanRate() / slot.Seconds()
	got := float64(len(mmppArrivals(bursty, slot, 5*dur, rng.New(9)))) / (5 * dur).Seconds()
	if math.Abs(got-want)/want > 0.03 {
		t.Errorf("bursty: realised %.1f arrivals/s, configured mean %.1f", got, want)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	b := encodePayload(128, 42, 9)
	if a, s, ok := decodePayload(b); !ok || a != 42 || s != 9 {
		t.Fatalf("decode = (%d, %d, %t)", a, s, ok)
	}
	b[100] ^= 1
	if _, _, ok := decodePayload(b); ok {
		t.Fatal("a torn payload decoded")
	}
	if _, _, ok := decodePayload(make([]byte, 128)); ok {
		t.Fatal("an all-zero block decoded")
	}
}

// readHistory builds a one-address history: a write (op 0) acknowledged
// at 10ms, a second write (op 1) sent at 20ms and acknowledged at 30ms,
// and a read (op 2) sent at 40ms whose response names got.
func readHistory(gotAddr, gotSeq uint64) *history {
	ms := int64(time.Millisecond)
	ops := []op{{addr: 5, write: true}, {addr: 5, write: true}, {addr: 5}}
	out := []outcome{
		{sent: 0, recv: 10 * ms, status: serve.StatusOK},
		{sent: 20 * ms, recv: 30 * ms, status: serve.StatusOK},
		{sent: 40 * ms, recv: 50 * ms, status: serve.StatusOK, gotAddr: gotAddr, gotSeq: gotSeq, gotValid: true},
	}
	return newHistory(ops, out)
}

func TestReadCheckerAcceptsLatestAcknowledgedWrite(t *testing.T) {
	if err := readHistory(5, 2).checkRead(2); err != nil {
		t.Fatal(err)
	}
}

func TestReadCheckerRejectsStaleValue(t *testing.T) {
	for _, seq := range []uint64{1, 0} { // the first write; the preload
		err := readHistory(5, seq).checkRead(2)
		if err == nil || !strings.Contains(err.Error(), "stale") {
			t.Fatalf("seq %d: got %v, want a stale-value error", seq, err)
		}
	}
}

func TestReadCheckerRejectsOtherAddress(t *testing.T) {
	err := readHistory(6, 2).checkRead(2)
	if err == nil || !strings.Contains(err.Error(), "addr 6") {
		t.Fatalf("got %v, want a wrong-address error", err)
	}
}

func TestReadCheckerAcceptsConcurrentWrite(t *testing.T) {
	// The second write is still in flight when the read is sent: both it
	// and the first write are legal answers.
	ms := int64(time.Millisecond)
	ops := []op{{addr: 5, write: true}, {addr: 5, write: true}, {addr: 5}}
	out := []outcome{
		{sent: 0, recv: 10 * ms, status: serve.StatusOK},
		{sent: 20 * ms, recv: 60 * ms, status: serve.StatusOK},
		{sent: 40 * ms, recv: 50 * ms, status: serve.StatusOK, gotAddr: 5, gotValid: true},
	}
	for _, seq := range []uint64{1, 2} {
		out[2].gotSeq = seq
		if err := newHistory(ops, out).checkRead(2); err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
	}
	out[2].gotSeq = 0 // the preload is older than the acknowledged first write
	if err := newHistory(ops, out).checkRead(2); err == nil {
		t.Fatal("accepted the preload after a later write was acknowledged")
	}
}

func TestReadCheckerRejectsRefusedWrite(t *testing.T) {
	ms := int64(time.Millisecond)
	ops := []op{{addr: 5, write: true}, {addr: 5}}
	out := []outcome{
		{sent: 0, recv: 1 * ms, status: serve.StatusShed},
		{sent: 2 * ms, recv: 3 * ms, status: serve.StatusOK, gotAddr: 5, gotSeq: 1, gotValid: true},
	}
	if err := newHistory(ops, out).checkRead(1); err == nil {
		t.Fatal("accepted the value of a write the server refused")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := percentile(xs, 0.99); ok {
		t.Fatal("p99 of 999 samples has 9 beyond it and must not be reported")
	}
	xs = append(xs, 1000)
	v, ok := percentile(xs, 0.99)
	if !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = (%v, %t), want (990, true)", v, ok)
	}
	if v, ok := percentile(xs, 0.5); !ok || v != 500 {
		t.Fatalf("p50 of 1..1000 = (%v, %t), want (500, true)", v, ok)
	}
	if _, ok := percentile(xs[:15], 0.5); ok {
		t.Fatal("p50 of 15 samples has 7 beyond it and must not be reported")
	}
}

func TestQuietSlicesSkipStolenSlicesDownToAFloor(t *testing.T) {
	const n, slice = 100, 250 * time.Millisecond
	check := func(name string, use []bool, want func(k int) bool) {
		t.Helper()
		for k, u := range use {
			if u != want(k) {
				t.Fatalf("%s: slice %d used=%t", name, k, u)
			}
		}
	}
	// A host that reports no steal: the whole window.
	check("no steal", quietSlices(make([]float64, n), slice), func(int) bool { return true })
	// Steal in a third of the slices: exactly the others.
	steal := make([]float64, n)
	for k := 0; k < n; k += 3 {
		steal[k] = 0.05
	}
	check("some steal", quietSlices(steal, slice), func(k int) bool { return steal[k] == 0 })
	// Steal in every slice: the least-stolen tenth, wherever it lies.
	for k := range steal {
		steal[k] = 0.01 * float64(n-k)
	}
	check("steal throughout", quietSlices(steal, slice), func(k int) bool { return k >= 9*n/10 })
	// Too few unstolen slices: those, then the least-stolen others.
	for k := range steal {
		steal[k] = 0.5
	}
	steal[3], steal[50], steal[7] = 0, 0.01, 0.02
	steal[60], steal[61], steal[62] = 0.03, 0.03, 0.03
	steal[90], steal[91], steal[92], steal[93] = 0, 0, 0, 0.04
	used := map[int]bool{3: true, 50: true, 7: true, 60: true, 61: true, 62: true, 90: true, 91: true, 92: true, 93: true}
	check("few unstolen", quietSlices(steal, slice), func(k int) bool { return used[k] })
	// A window shorter than the two-second floor is used whole.
	check("short window", quietSlices([]float64{0.1, 0.2, 0.3, 0.4}, slice), func(int) bool { return true })
}

func TestHistogramQuantilesNeedTenSamplesBeyond(t *testing.T) {
	d := mergeDump(telemetry.HistogramDump{}, telemetry.HistogramDump{Width: 100, Buckets: []uint64{50, 30, 15, 5}, N: 100, Max: 400})
	if _, ok := interpQuantile(d, 0.99); ok {
		t.Fatal("interpolated p99 of 100 samples reported")
	}
	if v, ok := interpQuantile(d, 0.5); !ok || v != 100 {
		t.Fatalf("interpolated p50 = (%v, %t), want (100, true)", v, ok)
	}
	if _, ok := histQuantile(d, 0.95); ok {
		t.Fatal("p95 of 100 samples has 5 beyond it and must not be reported")
	}
	if v, ok := histQuantile(d, 0.8); !ok || v != 200 {
		t.Fatalf("p80 = (%v, %t), want (200, true)", v, ok)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric names and units the
// benchmark prints equal to the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &cfg); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", cfg.EndToEnd, endToEnd)
	check("per_layer", cfg.PerLayer, perLayer)
	names := []string{serveWorkloads[0].name, serveWorkloads[1].name, simPaper.name}
	for i, w := range cfg.Workloads {
		if i >= len(names) || w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %v", i, w.Name, names)
		}
	}
}

package main

import (
	"bytes"
	"math"
	"testing"
	"time"

	"github.com/poexec/poe/internal/types"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.05, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.51, 6}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	// p99 of 1000 samples is the 990th smallest: ten samples lie beyond it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestMedianAndMean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if xs[0] != 4 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if median(nil) != 0 || mean(nil) != 0 {
		t.Error("empty median/mean not 0")
	}
	if got := mean([]float64{1, 2, 3, 6}); got != 3 {
		t.Errorf("mean = %v", got)
	}
}

func TestGoodputCountsOnlyRepliesWithinLimit(t *testing.T) {
	ms := time.Millisecond
	lat := []time.Duration{10 * ms, 50 * ms, 51 * ms, 2 * time.Second}
	// Two of four completions meet the 50 ms limit (the limit is inclusive);
	// failed requests have no latency and so never count.
	if got := goodput(lat, 50*ms, 2*time.Second); got != 1 {
		t.Errorf("goodput = %v, want 1 txn/s", got)
	}
	if got := goodput(lat, 50*ms, 0); got != 0 {
		t.Errorf("goodput over an empty window = %v, want 0", got)
	}
}

func TestLongestGap(t *testing.T) {
	base := time.Unix(1000, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	end := at(1000)
	for _, tc := range []struct {
		name        string
		completions []time.Time
		want        time.Duration
	}{
		{"none", nil, time.Second},
		{"middle outage", []time.Time{at(100), at(200), at(900), at(950)}, 700 * time.Millisecond},
		{"outage at start", []time.Time{at(600), at(700)}, 600 * time.Millisecond},
		{"outage at end", []time.Time{at(100), at(200)}, 800 * time.Millisecond},
		{"ignores outside", []time.Time{at(-50), at(500), at(1200)}, 500 * time.Millisecond},
		{"unsorted", []time.Time{at(900), at(100), at(500)}, 400 * time.Millisecond},
	} {
		if got := longestGap(base, end, tc.completions); got != tc.want {
			t.Errorf("%s: longestGap = %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := longestGap(end, base, nil); got != 0 {
		t.Errorf("inverted interval gap = %v, want 0", got)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	parent := span{ID: 1, Name: "parent", Start: 0, End: 100}
	kids := []span{
		{ID: 2, Parent: 1, Name: "kid", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "kid", Start: 20, End: 40},  // overlaps the first
		{ID: 4, Parent: 1, Name: "kid", Start: 90, End: 120}, // clipped to the parent
	}
	if got := covered(parent, kids); got != 40 {
		t.Errorf("covered = %d, want 40", got)
	}
	for _, s := range summarizeSpans(append([]span{parent}, kids...)) {
		switch s.name {
		case "parent":
			if s.count != 1 || math.Abs(s.selfMs-60e-6) > 1e-12 || math.Abs(s.totalMs-100e-6) > 1e-12 {
				t.Errorf("parent stats %+v, want self 60 ns of 100 ns", s)
			}
		case "kid":
			if s.count != 3 || math.Abs(s.selfMs-s.totalMs) > 1e-12 {
				t.Errorf("leaf stats %+v, want self = duration", s)
			}
		default:
			t.Errorf("unexpected span name %q", s.name)
		}
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--seconds", "0"},
		{"--trace", "2"},
		{"--bogus"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code == 0 {
			t.Errorf("run(%v) exit code 0", args)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) printed %q", args, out.String())
		}
	}
}

// smokeSpec is a tiny mixed load: writes, SPECULATIVE and STRONG reads.
var smokeSpec = workloadSpec{name: "smoke", rate: 40, readFraction: 0.5, readSplit: true}

// TestSmokeGate runs the reorder probe and then drives a real cluster at a
// tiny rate. It checks that every request completes and the correctness
// gate passes, then that the gate fails once a speculative answer quotes a
// digest no replica recorded.
func TestSmokeGate(t *testing.T) {
	c, setup, err := startCluster(smokeSpec, 1, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	lost, err := c.reorderProbe(time.Second)
	if err != nil {
		c.stop()
		t.Fatal(err)
	}
	t.Logf("reorder probe: %d of 2 writes lost", lost)
	res := drive(c, smokeSpec, 1, 200*time.Millisecond, time.Second, nil)
	c.stop()
	if setup <= 0 {
		t.Errorf("setup time %v", setup)
	}
	e := endToEnd(res, setup.Seconds())
	if e.attempted == 0 || e.p50 <= 0 {
		t.Fatalf("no measured completions: %s", e.failures)
	}
	if e.failed != 0 {
		t.Errorf("requests failed: %s", e.failures)
	}
	g := checkCluster(c)
	if !g.ok() {
		t.Fatalf("gate failed on an honest run: %s", g)
	}
	if g.liveReplicas != clusterN || g.ledgersOK != clusterN || g.digestSeq == 0 {
		t.Fatalf("gate checked too little: %s", g)
	}

	c.audit.samples[readKey{types.ClientIDBase, 1 << 40}] = readTag{execSeq: g.digestSeq, state: types.Digest{0xff}}
	if g := checkCluster(c); g.ok() {
		t.Fatalf("gate accepted a speculative answer with a forged digest: %s", g)
	}
}

// TestSmokeTraced runs the traced path on a durable cluster and checks that
// the per-layer metrics see every stage of an ordered request.
func TestSmokeTraced(t *testing.T) {
	spec := smokeSpec
	spec.durable = true
	dir := t.TempDir()
	tr := newTracer()
	c, _, err := startCluster(spec, 2, dir, tr.wrap)
	if err != nil {
		t.Fatal(err)
	}
	res := drive(c, spec, 2, 200*time.Millisecond, time.Second, tr)
	c.stop()
	if g := checkCluster(c); !g.ok() {
		t.Fatalf("gate: %s", g)
	}
	spans := buildSpans(res, tr.byKey(), res.measureStart)
	stages := summarizeSpans(spans)
	layers, problems := layerMetrics(c, spec, res, tr, stages, dir, 0)
	if len(problems) > 0 {
		t.Fatalf("problems: %v", problems)
	}
	got := map[string]float64{}
	for _, m := range layers {
		got[m.name] = m.value
	}
	for _, name := range []string{
		"stage.ingress_ms", "stage.batch_ms", "stage.order_ms", "stage.reply_ms",
		"stage.read_serve_ms", "net.msgs_per_txn", "wire.encode_us", "client.sign_us",
		"crypto.client_verify_us", "store.apply_us_per_txn", "wal.group_size", "wal.append_us",
	} {
		if got[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, got[name])
		}
	}
	if _, ok := got["trace.overhead_frac"]; !ok {
		t.Error("trace.overhead_frac missing")
	}
}

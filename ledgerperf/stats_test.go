package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"

	"sqlledger/internal/obs"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileTailRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		q      float64
		want   float64
		report bool
	}{
		{100, 0.50, 50, true},
		{100, 0.99, 99, false},  // 1 sample beyond
		{999, 0.99, 990, false}, // 9 beyond
		{1000, 0.99, 990, true}, // 10 beyond
		{1, 0.50, 1, false},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.report {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.report)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported as supported")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSetLatencyFallsBackBelowTenBeyond(t *testing.T) {
	r := &run{metrics: map[string]float64{}, meta: map[string]any{}}
	r.setLatency("tx", seq(500))
	if r.metrics["tx_p99_us"] != 500 || r.meta["tx_p99_note"] == nil {
		t.Errorf("500 samples: p99 = %v note = %v; want the maximum and a note", r.metrics["tx_p99_us"], r.meta["tx_p99_note"])
	}
	r = &run{metrics: map[string]float64{}, meta: map[string]any{}}
	r.setLatency("tx", seq(2000))
	if r.metrics["tx_p99_us"] != 1980 || r.metrics["tx_p50_us"] != 1000 || r.meta["tx_p99_note"] != nil {
		t.Errorf("2000 samples: p50 %v p99 %v note %v", r.metrics["tx_p50_us"], r.metrics["tx_p99_us"], r.meta["tx_p99_note"])
	}
}

func TestFailedRatioCountsEveryOperation(t *testing.T) {
	var c opCounter
	boom := errors.New("boom")
	for _, err := range []error{nil, boom, nil, boom, boom, nil, nil, nil} {
		if got := c.note(err); got != err {
			t.Fatalf("note changed the error: %v", got)
		}
	}
	if c.attempted.Load() != 8 || c.failed.Load() != 3 || c.failedRatio() != 3.0/8 {
		t.Errorf("attempted %d failed %d ratio %v", c.attempted.Load(), c.failed.Load(), c.failedRatio())
	}
	var empty opCounter
	if empty.failedRatio() != 0 {
		t.Error("ratio of no operations is not 0")
	}
}

func TestSelfTimeFromNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "tx", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 60, End: 70},
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 120}, // runs past the parent
		{ID: 6, Parent: 4, Name: "e", Start: 62, End: 65},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 40, 2: 20, 3: 30, 4: 7, 5: 30, 6: 3} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

// writeTxSpans builds n write transactions of a DML call taking dml ns
// and a commit taking commit ns, with gap ns of the transaction's own
// work before each.
func writeTxSpans(n int, dml, commit int64) []span {
	const gap = 5
	var out []span
	id := uint64(0)
	at := int64(0)
	for i := 0; i < n; i++ {
		root := id + 1
		id += 3
		d0 := at + gap
		c0 := d0 + dml + gap
		end := c0 + commit
		out = append(out,
			span{ID: root, Op: uint64(i), Name: "write_tx", Start: at, End: end},
			span{ID: root + 1, Parent: root, Op: uint64(i), Name: "core.dml", Start: d0, End: d0 + dml, Items: 1},
			span{ID: root + 2, Parent: root, Op: uint64(i), Name: "core.commit", Start: c0, End: c0 + commit},
		)
		at = end + 1
	}
	return out
}

// A layer made 2x slower shows in that layer's metric and in no other.
func TestSlowerLayerMovesOnlyItsMetric(t *testing.T) {
	t.Run("span", func(t *testing.T) {
		base := spanMetrics(writeTxSpans(50, 4000, 9000))
		slow := spanMetrics(writeTxSpans(50, 8000, 9000))
		assertOnlyChanged(t, base, slow, "core.dml_us.p50")
	})
	t.Run("registry", func(t *testing.T) {
		layers := func(applySeconds float64) map[string]float64 {
			reg := obs.NewRegistry()
			before := reg.Snapshot()
			for i := 0; i < 100; i++ {
				reg.Counter(obs.EngineCommitTotal).Inc()
				reg.Counter(obs.WALFsyncTotal).Inc()
				reg.Histogram(obs.WALFsyncSeconds, nil).Observe(80e-6)
				for _, s := range []string{"encode", "sequence", "publish", "wait"} {
					reg.Histogram(obs.CommitStageSeconds, nil, obs.L("stage", s)).Observe(3e-6)
				}
				reg.Histogram(obs.CommitStageSeconds, nil, obs.L("stage", "apply")).Observe(applySeconds)
			}
			r := &run{metrics: map[string]float64{}, meta: map[string]any{}}
			r.delta = regDelta{before: before, after: reg.Snapshot()}
			r.setLayers()
			return r.metrics
		}
		base, slow := layers(6e-6), layers(12e-6)
		assertOnlyChanged(t, base, slow, "engine.commit_stage_us.apply.p50")
	})
}

func assertOnlyChanged(t *testing.T, base, slow map[string]float64, want string) {
	t.Helper()
	if r := slow[want] / base[want]; math.IsNaN(r) || r < 1.5 {
		t.Errorf("%s: %v -> %v, want it about 2x slower", want, base[want], slow[want])
	}
	for name, v := range base {
		if name != want && slow[name] != v {
			t.Errorf("%s moved from %v to %v though only %s was slowed", name, v, slow[name], want)
		}
	}
}

func TestRegistryDeltaIsTheWindow(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram(obs.LockWaitSeconds, nil)
	for i := 0; i < 100; i++ {
		h.Observe(1) // before the window: all slow
	}
	reg.Counter(obs.LockTimeoutTotal).Add(7)
	before := reg.Snapshot()
	for i := 0; i < 100; i++ {
		h.Observe(1e-5)
	}
	reg.Counter(obs.LockTimeoutTotal).Add(2)
	d := regDelta{before: before, after: reg.Snapshot()}
	if got := d.counter(obs.LockTimeoutTotal); got != 2 {
		t.Errorf("counter delta = %d, want 2", got)
	}
	if got := d.hist(obs.LockWaitSeconds).Count; got != 100 {
		t.Errorf("histogram delta count = %d, want 100", got)
	}
	if q := d.quantile(obs.LockWaitSeconds, 0.99, 1e6); q > 10 {
		t.Errorf("window p99 = %v µs, want at most 10 (observations before the window leaked in)", q)
	}
}

// Every metric a run reports is named in BENCHMARK.json with the same
// unit, and the reverse.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, code []metricDef, file []struct{ Name, Unit string }) {
		if len(code) != len(file) {
			t.Errorf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(code), len(file))
		}
		for i := range code {
			if i < len(file) && (code[i].name != file[i].Name || code[i].unit != file[i].Unit) {
				t.Errorf("%s[%d]: code %s %s, BENCHMARK.json %s %s", kind, i, code[i].name, code[i].unit, file[i].Name, file[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}

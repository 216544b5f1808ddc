// Command ledgerperf is the repository benchmark. It drives the public
// sqlledger facade and the internal/workload generators through one of
// three workloads and prints one JSON result line:
//
//	ingest-audit  one client through the whole ledger lifecycle
//	read-write    snapshot reader with receipts + single-row writer,
//	              which pauses during each receipt read
//	read-write-overlap  read-write with receipt reads beside the writer
//	tpcc          TPC-C mix on ledger tables, 2 closed-loop clients
//
// BENCHMARK.json runs the first two. tpcc is run by hand: 45% of its
// operations fail (New-Order, after lost updates break every district)
// and its timings moved by 15-40% between runs, so it cannot meet the
// benchmark's bounds; its per-type counts and broken_districts show the
// defects. read-write-overlap is run by hand too: now and then a receipt
// build beside a committing update fails (see runReadWrite), so two runs
// of the same code do not count the same failures.
//
// Every workload fsyncs each commit (SyncFull) and ends by checking its
// ledger: Verify must be green against every digest taken, the auditor
// must report no tamper and every point read must find its row. A failed
// check fails the run.
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced
// run (--trace 1) records a span around every timed call, writes the spans
// to .bench_build/ledgerperf-spans/, and reports the per-layer metrics.
//
// Run it from the repository root with ledgerperf/run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

var workloads = map[string]struct {
	clients int
	run     func(*run) error
}{
	"tpcc":               {tpccClients, runTPCC},
	"ingest-audit":       {1, runIngestAudit},
	"read-write":         {2, func(r *run) error { return runReadWrite(r, false) }},
	"read-write-overlap": {2, func(r *run) error { return runReadWrite(r, true) }},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: ingest-audit, read-write, read-write-overlap or tpcc")
	seed := flag.Int64("seed", 1, "seed the workload inputs are made from")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	if err := benchmark(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "ledgerperf:", err)
		os.Exit(1)
	}
}

func benchmark(name string, seed int64, seconds int, traced bool) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	work := filepath.Join(".bench_build", "ledgerperf-work", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	r := &run{
		workload: name, seed: seed, seconds: time.Duration(seconds) * time.Second, work: work,
		metrics: make(map[string]float64), meta: runMeta(name, seed, w.clients),
	}
	if traced {
		r.tr = newTracer()
	}
	if err := w.run(r); err != nil {
		return err
	}
	r.set("ok_ratio", 1-r.ops.failedRatio())
	r.set("core.receipt_build_failed", float64(r.receiptFailed.Load()))
	if r.receiptErr != nil {
		r.meta["receipt_build_error"] = r.receiptErr.Error()
	}
	defs := endToEnd
	if traced {
		r.setLayers()
		defs = perLayer
		if name == "tpcc" {
			defs = append(defs[:len(defs):len(defs)], tpccLayer...)
		}
		if err := r.writeSpans(); err != nil {
			return err
		}
	}

	res := result{
		Correct:   len(r.checks) == 0,
		Attempted: r.ops.attempted.Load(),
		Failed:    r.ops.failed.Load(),
		Metrics:   make(map[string]metricValue),
	}
	meta, err := json.Marshal(r.meta)
	if err != nil {
		return err
	}
	fmt.Printf("meta %s\n", meta)
	for _, c := range r.checks {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", c)
	}
	if res.Correct {
		for _, d := range defs {
			res.Metrics[d.name] = metricValue{Value: r.metrics[d.name], Unit: d.unit}
			fmt.Printf("%-42s %16.4f %s\n", d.name, r.metrics[d.name], d.unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d correctness checks failed", len(r.checks))
	}
	return nil
}

// writeSpans writes the traced run's spans, with their self times, and a
// per-name summary of total and self time.
func (r *run) writeSpans() error {
	spans := r.tr.all()
	self := selfTimes(spans)
	type named struct {
		span
		SelfNs int64 `json:"self_ns"`
	}
	type summary struct {
		Count   int     `json:"count"`
		TotalMs float64 `json:"total_ms"`
		SelfMs  float64 `json:"self_ms"`
	}
	out := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Summary  map[string]summary `json:"summary"`
		Spans    []named            `json:"spans"`
	}{Workload: r.workload, Seed: r.seed, Summary: make(map[string]summary)}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for _, s := range spans {
		out.Spans = append(out.Spans, named{s, self[s.ID]})
		sm := out.Summary[s.Name]
		sm.Count++
		sm.TotalMs += float64(s.dur()) / 1e6
		sm.SelfMs += float64(self[s.ID]) / 1e6
		out.Summary[s.Name] = sm
	}
	dir := filepath.Join(".bench_build", "ledgerperf-spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.workload, r.seed)), b, 0o644)
}

package main

import (
	"sqlledger/internal/obs"
)

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
// The transaction rates and latencies, digest_ms and audit_ms are
// per-layer metrics instead: each waits on an fsync or a file rename of
// the shared disk, and between runs of the same code they moved by more
// than the largest bound allowed.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ok_ratio", "ratio"},
	{"read_p50_us", "us"},
	{"receipt_p50_us", "us"},
	{"ingest_rows_per_s", "1/s"},
	{"recovery_s", "s"},
	{"verify_s", "s"},
	{"bytes_per_user_byte", "ratio"},
}

// perLayer are the metrics a traced run reports, on every workload. A
// layer a workload leaves idle reads 0.
var perLayer = []metricDef{
	// core DML: row serialization + SHA-256, Merkle append.
	{"core.dml_us.p50", "us"},
	{"serial.rows_hashed", "count"},
	{"serial.hash_batch_size.p50", "rows"},
	// engine locks.
	{"engine.lock_wait_us.count", "count"},
	{"engine.lock_wait_us.p99", "us"},
	{"engine.lock_timeouts", "count"},
	{"engine.rollbacks", "count"},
	// engine commit pipeline.
	{"engine.commit_stage_us.encode.p50", "us"},
	{"engine.commit_stage_us.sequence.p50", "us"},
	{"engine.commit_stage_us.publish.p50", "us"},
	{"engine.commit_stage_us.wait.p50", "us"},
	{"engine.commit_stage_us.apply.p50", "us"},
	{"core.commit_us.p50", "us"},
	{"core.commit_us.p99", "us"},
	// wal.
	{"wal.fsyncs", "count"},
	{"wal.fsync_us.p50", "us"},
	{"wal.fsync_us.p99", "us"},
	{"wal.fsync_per_commit", "ratio"},
	{"wal.group_size.p50", "count"},
	{"wal.append_bytes", "bytes"},
	{"wal.bytes_per_commit", "bytes"},
	// core block close + digest.
	{"core.block_close_ms.count", "count"},
	{"core.block_close_ms.p99", "ms"},
	{"core.ledger_queue_len.max", "count"},
	{"core.digest_ms", "ms"},
	// engine MVCC + btree.
	{"core.read_get_us.p50", "us"},
	{"engine.snapshot_reads", "count"},
	{"engine.versions_live", "count"},
	{"engine.version_gc_reclaimed", "count"},
	// core receipts.
	{"core.receipt_build_us.p50", "us"},
	{"core.receipt_verify_us.p50", "us"},
	{"core.receipt_bytes.p50", "bytes"},
	{"core.receipt_build_failed", "count"},
	// core verify.
	{"core.verify_ms.chain", "ms"},
	{"core.verify_ms.row_versions", "ms"},
	{"core.verify_ms.indexes", "ms"},
	{"core.verify_ms.views", "ms"},
	// core auditor.
	{"core.audit_cycle_ms.p50", "ms"},
	{"core.audit_catchup_ms", "ms"},
	{"core.audit_blocks_checked.incremental", "count"},
	// engine recovery + checkpoint.
	{"engine.recovery_ms.snapshot", "ms"},
	{"engine.recovery_ms.replay", "ms"},
	{"engine.recovery_ms.install", "ms"},
	{"engine.records_replayed", "count"},
	{"engine.checkpoint_ms", "ms"},
	{"engine.checkpoint_quiesce_us", "us"},
	// disk.
	{"disk.wal_bytes", "bytes"},
	{"disk.snapshot_bytes", "bytes"},
	{"disk.other_bytes", "bytes"},
	// Write transactions, read rates and tails, digests and audit cycles
	// as a user sees them (see endToEnd for why they are not there).
	{"tx_per_s", "1/s"},
	{"tx_p50_us", "us"},
	{"tx_p99_us", "us"},
	{"read_tx_per_s", "1/s"},
	{"read_p99_us", "us"},
	{"digest_ms", "ms"},
	{"audit_ms", "ms"},
	{"workload.failed_ratio", "ratio"},
	// Go runtime.
	{"runtime.gc_pause_us.p99", "us"},
	{"runtime.heap_mb.max", "MB"},
	// The benchmark's own spans.
	{"bench.write_tx_self_us.p50", "us"},
	{"trace.spans", "count"},
	{"trace.read_p50_us", "us"},
}

// tpccLayer are the per-layer metrics only the tpcc workload reports,
// after perLayer.
var tpccLayer = []metricDef{
	{"workload.tpcc.new_order.ok", "count"},
	{"workload.tpcc.new_order.failed", "count"},
	{"workload.tpcc.new_order.p50_us", "us"},
	{"workload.tpcc.payment.ok", "count"},
	{"workload.tpcc.payment.failed", "count"},
	{"workload.tpcc.payment.p50_us", "us"},
	{"workload.tpcc.order_status.ok", "count"},
	{"workload.tpcc.order_status.failed", "count"},
	{"workload.tpcc.order_status.p50_us", "us"},
	{"workload.tpcc.delivery.ok", "count"},
	{"workload.tpcc.delivery.failed", "count"},
	{"workload.tpcc.delivery.p50_us", "us"},
	{"workload.tpcc.stock_level.ok", "count"},
	{"workload.tpcc.stock_level.failed", "count"},
	{"workload.tpcc.stock_level.p50_us", "us"},
	{"workload.tpcc.broken_districts", "count"},
}

// setLedger stores the end-to-end metrics of the ledger lifecycle and the
// verify-phase split.
func (r *run) setLedger(ls *ledgerSamples) {
	r.set("digest_ms", median(ls.digestMs))
	r.set("audit_ms", median(ls.auditMs))
	r.set("recovery_s", median(ls.recoveryS))
	r.set("verify_s", median(ls.verifyS))
	r.set("bytes_per_user_byte", median(ls.bytesRatio))
	receipt, _ := percentile(ls.receiptUs, 0.5)
	r.set("receipt_p50_us", receipt)
	r.meta["receipt_samples"] = len(ls.receiptUs)
	r.meta["digests"] = len(ls.digests)

	var chain, rows, ix, views []float64
	for _, t := range ls.verifyTiming {
		chain = append(chain, ms(t.Chain))
		rows = append(rows, ms(t.RowVersions))
		ix = append(ix, ms(t.Indexes))
		views = append(views, ms(t.Views))
	}
	r.set("core.verify_ms.chain", median(chain))
	r.set("core.verify_ms.row_versions", median(rows))
	r.set("core.verify_ms.indexes", median(ix))
	r.set("core.verify_ms.views", median(views))
	r.set("core.audit_catchup_ms", median(ls.auditCatchUpMs))
	bytes, _ := percentile(ls.receiptBytes, 0.5)
	r.set("core.receipt_bytes.p50", bytes)
}

// append pools another lifecycle's samples into ls.
func (ls *ledgerSamples) append(o *ledgerSamples) {
	ls.digests = append(ls.digests, o.digests...)
	ls.digestMs = append(ls.digestMs, o.digestMs...)
	ls.auditMs = append(ls.auditMs, o.auditMs...)
	ls.auditCatchUpMs = append(ls.auditCatchUpMs, o.auditCatchUpMs...)
	ls.recoveryS = append(ls.recoveryS, o.recoveryS...)
	ls.verifyS = append(ls.verifyS, o.verifyS...)
	ls.verifyTiming = append(ls.verifyTiming, o.verifyTiming...)
	ls.bytesRatio = append(ls.bytesRatio, o.bytesRatio...)
	ls.receiptUs = append(ls.receiptUs, o.receiptUs...)
	ls.receiptBytes = append(ls.receiptBytes, o.receiptBytes...)
}

// setLayers fills the per-layer metrics of a traced run from the registry
// window and the benchmark's spans.
func (r *run) setLayers() {
	d := r.delta
	const toUs, toMs = 1e6, 1e3
	stage := func(s string) obs.Label { return obs.L("stage", s) }
	phase := func(p string) obs.Label { return obs.L("phase", p) }

	r.set("serial.rows_hashed", float64(d.counter(obs.RowsHashedTotal)))
	r.set("serial.hash_batch_size.p50", d.quantile(obs.HashBatchSize, 0.5, 1))

	r.set("engine.lock_wait_us.count", float64(d.hist(obs.LockWaitSeconds).Count))
	r.set("engine.lock_wait_us.p99", d.quantile(obs.LockWaitSeconds, 0.99, toUs))
	r.set("engine.lock_timeouts", float64(d.counter(obs.LockTimeoutTotal)))
	r.set("engine.rollbacks", float64(d.counter(obs.EngineRollbackTotal)))

	for _, s := range []string{"encode", "sequence", "publish", "wait", "apply"} {
		r.set("engine.commit_stage_us."+s+".p50", d.quantile(obs.CommitStageSeconds, 0.5, toUs, stage(s)))
	}

	commits := float64(d.counter(obs.EngineCommitTotal))
	fsyncs := float64(d.counter(obs.WALFsyncTotal))
	appended := float64(d.counter(obs.WALAppendBytes))
	r.set("wal.fsyncs", fsyncs)
	r.set("wal.fsync_us.p50", d.quantile(obs.WALFsyncSeconds, 0.5, toUs))
	r.set("wal.fsync_us.p99", d.quantile(obs.WALFsyncSeconds, 0.99, toUs))
	r.set("wal.fsync_per_commit", ratio(fsyncs, commits))
	r.set("wal.group_size.p50", d.quantile(obs.WALGroupSize, 0.5, 1))
	r.set("wal.append_bytes", appended)
	r.set("wal.bytes_per_commit", ratio(appended, commits))

	r.set("core.block_close_ms.count", float64(d.hist(obs.BlockCloseSeconds).Count))
	r.set("core.block_close_ms.p99", d.quantile(obs.BlockCloseSeconds, 0.99, toMs))
	r.set("core.ledger_queue_len.max", r.queueMax)

	r.set("engine.snapshot_reads", float64(d.counter(obs.SnapshotReadsTotal)))
	r.set("engine.versions_live", d.gauge(obs.VersionsLive))
	r.set("engine.version_gc_reclaimed", float64(d.counter(obs.VersionGCReclaimedTotal)))

	r.set("core.audit_blocks_checked.incremental", float64(d.counter(obs.AuditBlocksCheckedTotal, obs.L("mode", "incremental"))))

	for _, p := range []string{"snapshot", "replay", "install"} {
		r.set("engine.recovery_ms."+p, d.quantile(obs.RecoverySeconds, 0.5, toMs, phase(p)))
	}
	r.set("engine.records_replayed", float64(d.counter(obs.RecoveryRecordsReplayedTotal)))
	r.set("engine.checkpoint_ms", d.quantile(obs.CheckpointSeconds, 0.5, toMs))
	r.set("engine.checkpoint_quiesce_us", d.quantile(obs.CheckpointQuiesceSeconds, 0.5, toUs))

	r.set("runtime.gc_pause_us.p99", d.quantile(obs.RuntimeGCPauseSeconds, 0.99, toUs))
	r.set("runtime.heap_mb.max", r.heapMax/(1<<20))
	r.set("workload.failed_ratio", r.ops.failedRatio())

	spans := r.tr.all()
	for name, v := range spanMetrics(spans) {
		r.set(name, v)
	}
	// The traced run's read latency, against the untraced runs'
	// read_p50_us, gives the tracing overhead.
	r.set("trace.read_p50_us", r.metrics["read_p50_us"])
}

// spanMetrics summarises the benchmark's spans into the per-layer metrics
// that come from spans.
func spanMetrics(spans []span) map[string]float64 {
	self := selfTimes(spans)
	p50 := func(xs []float64) float64 { v, _ := percentile(xs, 0.5); return v }
	p99 := func(xs []float64) float64 { v, _ := percentile(xs, 0.99); return v }
	commit := spanDurations(spans, "core.commit")
	return map[string]float64{
		"core.dml_us.p50":            p50(spanDurations(spans, "core.dml")),
		"core.commit_us.p50":         p50(commit),
		"core.commit_us.p99":         p99(commit),
		"core.digest_ms":             p50(spanDurations(spans, "core.digest")) / 1e3,
		"core.read_get_us.p50":       p50(spanDurations(spans, "core.read_get")),
		"core.receipt_build_us.p50":  p50(spanDurations(spans, "core.receipt_build")),
		"core.receipt_verify_us.p50": p50(spanDurations(spans, "core.receipt_verify")),
		"core.audit_cycle_ms.p50":    p50(spanDurations(spans, "core.audit_cycle")) / 1e3,
		"bench.write_tx_self_us.p50": p50(selfDurations(spans, self, "write_tx")),
		"trace.spans":                float64(len(spans)),
	}
}

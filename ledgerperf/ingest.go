package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"sqlledger"
)

// One ingest-audit lifecycle. Its size is fixed, so every lifecycle of a
// run does the same work and must produce the same digests.
const (
	iaBulkTxs     = 20   // bulk transactions ...
	iaBulkRows    = 1000 // ... of this many rows each
	iaUpdateTxs   = 200  // update transactions ...
	iaUpdateRows  = 10   // ... of this many rows each
	iaDigestEvery = 10   // write transactions between digests
	iaReadTxs     = 160  // snapshot read transactions after reopen
	iaReceiptEach = 16   // every n-th of them is a receipt read
	iaAuditRounds = 10   // "append, digest, audit cycle" rounds ...
	iaAppendRows  = 100  // ... appending this many rows each
	// iaClockBase is the logical clock's first reading.
	iaClockBase = int64(1_600_000_000_000_000_000)
)

// iaSchema is the Figure 8 table: four BIGINTs and a 210-byte VARCHAR.
func iaSchema() *sqlledger.Schema {
	return sqlledger.MustSchema([]sqlledger.Column{
		sqlledger.Col("id", sqlledger.TypeBigInt),
		sqlledger.Col("a", sqlledger.TypeBigInt),
		sqlledger.Col("b", sqlledger.TypeBigInt),
		sqlledger.Col("c", sqlledger.TypeBigInt),
		sqlledger.Col("filler", sqlledger.TypeVarChar),
	}, "id")
}

// iaInputs are the seed-derived inputs of one lifecycle.
type iaInputs struct {
	salt    int64
	updates [iaUpdateTxs][iaUpdateRows]int64 // keys each update tx rewrites
	reads   [iaReadTxs][16]int64             // keys each read tx reads
}

func newIAInputs(seed int64) *iaInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &iaInputs{salt: rng.Int63n(1 << 40)}
	for i := range in.updates {
		seen := make(map[int64]bool)
		for j := range in.updates[i] {
			id := rng.Int63n(iaBulkTxs * iaBulkRows)
			for seen[id] {
				id = rng.Int63n(iaBulkTxs * iaBulkRows)
			}
			seen[id] = true
			in.updates[i][j] = id
		}
	}
	for i := range in.reads {
		for j := range in.reads[i] {
			in.reads[i][j] = rng.Int63n(iaBulkTxs * iaBulkRows)
		}
	}
	return in
}

// row is version v of key id: 260 bytes of user data.
func (in *iaInputs) row(id, v int64) sqlledger.Row {
	filler := make([]byte, 210)
	for i := range filler {
		filler[i] = byte('a' + (in.salt+id*31+v*7+int64(i))%26)
	}
	return sqlledger.Row{
		sqlledger.BigInt(id), sqlledger.BigInt(id*3 + v), sqlledger.BigInt(id * 7),
		sqlledger.BigInt(v), sqlledger.VarChar(string(filler)),
	}
}

// iaResult is what one lifecycle measured.
type iaResult struct {
	ls        ledgerSamples
	seconds   float64 // wall time of the lifecycle
	writeUs   []float64
	readUs    []float64
	ingestRPS float64
	userBytes int64
	digests   [][]byte
}

// lifecycle runs the whole ledger lifecycle once in a fresh directory:
// bulk ingest, updates with periodic digests and a checkpoint halfway,
// close and reopen, read-back with receipts, auditor catch-up and rounds,
// and a full Verify against every digest. It returns the measurements and
// the JSON of every digest taken, in order.
func (r *run) lifecycle(dir string, reg *sqlledger.MetricsRegistry, in *iaInputs) (*iaResult, error) {
	var tick atomic.Int64
	tick.Store(iaClockBase)
	clock := func() int64 { return tick.Add(1) }
	res := &iaResult{}
	ls := &res.ls
	life := r.tr.op()
	root := r.tr.start("lifecycle", 0, life)
	defer root.end()
	begin := time.Now()

	db, err := openDB(dir, reg, clock)
	if err != nil {
		return nil, err
	}
	defer func() {
		if db != nil {
			db.Close()
		}
	}()
	lt, err := db.CreateLedgerTable("audit_rows", iaSchema(), sqlledger.Updateable)
	if err != nil {
		return nil, err
	}
	if _, err := db.Engine().CreateIndex("audit_rows", "ix_audit_rows_a", "a"); err != nil {
		return nil, err
	}
	version := make(map[int64]int64)
	writes := 0
	// commit times one write transaction from Begin to Commit and takes a
	// digest every iaDigestEvery of them.
	commit := func(rows int, dml func(tx *sqlledger.Tx) error) error {
		sp := r.tr.start("write_tx", root.id(), life)
		t0 := time.Now()
		tx := db.Begin("ingest")
		d := r.tr.start("core.dml", sp.id(), life)
		err := dml(tx)
		d.endN(rows)
		if err != nil {
			tx.Rollback()
			sp.end()
			return r.ops.note(err)
		}
		c := r.tr.start("core.commit", sp.id(), life)
		err = tx.Commit()
		c.end()
		el := time.Since(t0)
		sp.end()
		if r.ops.note(err) != nil {
			return err
		}
		res.writeUs = append(res.writeUs, us(el))
		if writes++; writes%iaDigestEvery == 0 {
			return r.digest(db, ls, root.id())
		}
		return nil
	}
	insert := func(lo, n int) func(tx *sqlledger.Tx) error {
		return func(tx *sqlledger.Tx) error {
			rows := make([]sqlledger.Row, n)
			for i := range rows {
				id := int64(lo + i)
				rows[i] = in.row(id, 0)
				version[id] = 0
			}
			return tx.InsertBatchParallel(lt, rows, runtime.NumCPU())
		}
	}

	t0 := time.Now()
	for b := 0; b < iaBulkTxs; b++ {
		if err := commit(iaBulkRows, insert(b*iaBulkRows, iaBulkRows)); err != nil {
			return nil, fmt.Errorf("bulk insert: %w", err)
		}
	}
	res.ingestRPS = float64(iaBulkTxs*iaBulkRows) / time.Since(t0).Seconds()

	for u, keys := range in.updates {
		if u == iaUpdateTxs/2 {
			sp := r.tr.start("core.checkpoint", root.id(), life)
			err := db.Checkpoint()
			sp.end()
			if r.ops.note(err) != nil {
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
		}
		err := commit(iaUpdateRows, func(tx *sqlledger.Tx) error {
			for _, id := range keys {
				version[id]++
				if err := tx.Update(lt, in.row(id, version[id])); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("update: %w", err)
		}
	}

	// Close and reopen. The logical clock is rewound to where it stood
	// before the last digest, so the digest taken after reopen must
	// reproduce that one byte for byte.
	at := tick.Load()
	if err := r.digest(db, ls, root.id()); err != nil {
		return nil, err
	}
	before := ls.digests[len(ls.digests)-1]
	if err := db.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	db = nil
	if db, err = r.reopen(dir, reg, clock, ls); err != nil {
		return nil, err
	}
	if lt, err = db.LedgerTable("audit_rows"); err != nil {
		return nil, err
	}
	tick.Store(at)
	after, err := db.GenerateDigest()
	if r.ops.note(err) != nil {
		return nil, fmt.Errorf("digest after reopen: %w", err)
	}
	r.check(sameDigest(before, after, true), "digest after reopen is not byte-identical: before %s after %s", before.JSON(), after.JSON())

	// Every acknowledged write is readable after the restart, at its
	// latest version.
	check := func(id int64, row sqlledger.Row) bool {
		return sameRow(row, in.row(id, version[id]))
	}
	for i, keys := range in.reads {
		sp := r.tr.start("read_tx", root.id(), life)
		t1 := time.Now()
		if (i+1)%iaReceiptEach == 0 {
			r.receiptRead(db, lt, keys[:], check, ls, sp.id())
		} else {
			rtx := db.BeginReadOnly()
			for _, id := range keys {
				r.readOne(rtx, lt, id, check, sp.id())
			}
			rtx.Close()
			res.readUs = append(res.readUs, us(time.Since(t1)))
		}
		sp.end()
	}

	a, err := db.NewAuditor(sqlledger.AuditorOptions{})
	if err != nil {
		return nil, fmt.Errorf("new auditor: %w", err)
	}
	r.auditCycle(a, &ls.auditCatchUpMs, root.id())
	next := iaBulkTxs * iaBulkRows
	for i := 0; i < iaAuditRounds; i++ {
		if err := commit(iaAppendRows, insert(next, iaAppendRows)); err != nil {
			return nil, fmt.Errorf("append: %w", err)
		}
		next += iaAppendRows
		if err := r.digest(db, ls, root.id()); err != nil {
			return nil, err
		}
		r.auditCycle(a, &ls.auditMs, root.id())
	}

	r.verify(db, ls)
	rtx := db.BeginReadOnly()
	err = rtx.Scan(lt, func(row sqlledger.Row) bool {
		res.userBytes += rowBytes(row)
		return true
	})
	rtx.Close()
	if err != nil {
		return nil, fmt.Errorf("scan user rows: %w", err)
	}
	if err := db.Close(); err != nil {
		return nil, fmt.Errorf("close after verify: %w", err)
	}
	db = nil
	for _, d := range ls.digests {
		res.digests = append(res.digests, d.JSON())
	}
	res.seconds = time.Since(begin).Seconds()
	return res, nil
}

// sameDigests reports whether two lifecycles produced the same digests.
func sameDigests(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func runIngestAudit(r *run) error {
	var (
		ref    [][]byte
		setups []float64
		in     *iaInputs
	)
	// Set-up builds the inputs and runs one untimed lifecycle; its
	// digests are the reference every later lifecycle must reproduce.
	err := r.untraced(func() error {
		for i := 0; i < setupRepeats; i++ {
			t0 := time.Now()
			in = newIAInputs(r.seed)
			dir := r.dbDir(fmt.Sprintf("ingest-audit-setup-%d", i))
			res, err := r.lifecycle(dir, sqlledger.NewMetricsRegistry(), in)
			if err != nil {
				return err
			}
			setups = append(setups, time.Since(t0).Seconds())
			if ref == nil {
				ref = res.digests
			}
			r.check(sameDigests(ref, res.digests), "set-up lifecycle %d produced different digests than lifecycle 0", i)
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("setup_s", median(setups))

	reg := sqlledger.NewMetricsRegistry()
	stopGauges := r.sampleGauges(reg)
	before := reg.Snapshot()
	// Each lifecycle is one group of the grouped metrics: rates and
	// medians are taken per lifecycle, then the median over lifecycles.
	var (
		all           ledgerSamples
		writes, reads [][]float64
		durs, ingest  []float64
		n             int
		runErr        error
	)
	start := time.Now()
	for n = 0; n == 0 || time.Since(start) < r.seconds; n++ {
		runtime.GC()
		dir := r.dbDir(fmt.Sprintf("ingest-audit-%d", n))
		res, err := r.lifecycle(dir, reg, in)
		if err != nil {
			runErr = err
			break
		}
		r.check(sameDigests(ref, res.digests), "lifecycle %d produced different digests than set-up", n)
		writes = append(writes, res.writeUs)
		reads = append(reads, res.readUs)
		durs = append(durs, res.seconds)
		ingest = append(ingest, res.ingestRPS)
		ratio, err := r.recordDisk(dir, res.userBytes)
		if err != nil {
			runErr = err
			break
		}
		res.ls.bytesRatio = append(res.ls.bytesRatio, ratio)
		all.append(&res.ls)
		if err := os.RemoveAll(dir); err != nil {
			runErr = err
			break
		}
	}
	stopGauges()
	r.delta = regDelta{before: before, after: reg.Snapshot()}
	if runErr != nil {
		return runErr
	}
	r.setGrouped("tx_per_s", "tx", writes, durs)
	r.setGrouped("read_tx_per_s", "read", reads, durs)
	r.set("ingest_rows_per_s", median(ingest))
	r.meta["lifecycles"] = n
	h := sha256.New()
	for _, d := range ref {
		h.Write(d)
	}
	r.meta["digest_fingerprint"] = fmt.Sprintf("%x", h.Sum(nil))
	r.setLedger(&all)
	return nil
}

// sameRow compares two rows value by value.
func sameRow(a, b sqlledger.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Type != y.Type || x.Null != y.Null || x.I64 != y.I64 || x.F64 != y.F64 ||
			x.Str != y.Str || !bytes.Equal(x.Bytes, y.Bytes) {
			return false
		}
	}
	return true
}

package main

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	"runtime"
	"time"

	"sqlledger"
)

// ledgerRounds is how many "write, digest, audit cycle" rounds the ledger
// phase of a closed-loop workload makes; digest_ms and audit_ms are
// medians over them. Each round takes well under a millisecond, so it
// takes hundreds for the phase to last long enough that one burst of
// disk or scheduler noise cannot cover it.
const ledgerRounds = 250

// ledgerSamples collects the ledger-lifecycle measurements: digests,
// auditor cycles, recovery, verification and receipts.
type ledgerSamples struct {
	digests  []sqlledger.Digest
	digestMs []float64
	auditMs  []float64
	// auditCatchUpMs is the first cycle after the auditor is created,
	// which checks every block closed so far.
	auditCatchUpMs []float64
	recoveryS      []float64
	// bytesRatio is bytes on disk ÷ live user bytes of closed images.
	bytesRatio   []float64
	verifyS      []float64
	verifyTiming []sqlledger.VerifyTiming
	receiptUs    []float64
	receiptBytes []float64
}

// digest generates a digest, timed, and keeps it for the final Verify.
func (r *run) digest(db *sqlledger.DB, ls *ledgerSamples, parent uint64) error {
	sp := r.tr.start("core.digest", parent, 0)
	t0 := time.Now()
	d, err := db.GenerateDigest()
	el := time.Since(t0)
	sp.end()
	if r.ops.note(err) != nil {
		return fmt.Errorf("generate digest: %w", err)
	}
	ls.digests = append(ls.digests, d)
	ls.digestMs = append(ls.digestMs, ms(el))
	return nil
}

// auditCycle runs one auditor cycle, timed, and checks that the auditor
// reports no tamper.
func (r *run) auditCycle(a *sqlledger.Auditor, into *[]float64, parent uint64) {
	sp := r.tr.start("core.audit_cycle", parent, 0)
	t0 := time.Now()
	st := a.RunCycle()
	el := time.Since(t0)
	sp.end()
	r.ops.note(nil)
	*into = append(*into, ms(el))
	r.check(st.Ok && st.LastReport == nil, "auditor reported tamper: %v", st.LastReport)
}

// reopen opens dir again and times it: recovery loads the latest
// snapshot and replays the WAL written after it.
func (r *run) reopen(dir string, reg *sqlledger.MetricsRegistry, clock func() int64, ls *ledgerSamples) (*sqlledger.DB, error) {
	sp := r.tr.start("core.recovery", 0, 0)
	t0 := time.Now()
	db, err := openDB(dir, reg, clock)
	el := time.Since(t0)
	sp.end()
	if r.ops.note(err) != nil {
		return nil, fmt.Errorf("reopen %s: %w", dir, err)
	}
	ls.recoveryS = append(ls.recoveryS, el.Seconds())
	return db, nil
}

// verify runs a full Verify against every digest taken; a report that is
// not green fails the run.
func (r *run) verify(db *sqlledger.DB, ls *ledgerSamples) {
	sp := r.tr.start("core.verify", 0, 0)
	t0 := time.Now()
	rep, err := db.Verify(ls.digests, sqlledger.VerifyOptions{})
	el := time.Since(t0)
	sp.end()
	r.ops.note(err)
	if err != nil {
		r.check(false, "verify: %v", err)
		return
	}
	r.check(rep.Ok(), "verify against %d digests is not green: %s", len(ls.digests), rep)
	r.check(rep.DigestsChecked == len(ls.digests), "verify checked %d of %d digests", rep.DigestsChecked, len(ls.digests))
	ls.verifyS = append(ls.verifyS, el.Seconds())
	ls.verifyTiming = append(ls.verifyTiming, rep.Timing)
}

// sameDigest compares a digest taken after reopen with the one taken
// before close. exact compares the JSON bytes; otherwise the generation
// time, which is the wall clock at the call, is left out.
func sameDigest(before, after sqlledger.Digest, exact bool) bool {
	if !exact {
		after.GeneratedAt = before.GeneratedAt
	}
	return bytes.Equal(before.JSON(), after.JSON())
}

// receiptRead runs one receipt-producing snapshot read: get every key,
// check each row is found, build the receipt and verify it offline. The
// build and verify time is a receipt_p50_us sample.
func (r *run) receiptRead(db *sqlledger.DB, lt *sqlledger.LedgerTable, keys []int64, check func(id int64, row sqlledger.Row) bool, ls *ledgerSamples, parent uint64) {
	priv := signingKey(r.seed)
	rtx := db.BeginReadOnlyForReceipt()
	for _, id := range keys {
		r.readOne(rtx, lt, id, check, parent)
	}
	sp := r.tr.start("core.receipt_build", parent, 0)
	t0 := time.Now()
	rec, err := rtx.CloseWithReceipt(priv)
	build := time.Since(t0)
	sp.end()
	if r.ops.note(err) != nil {
		// The program refused to build the receipt: a failed operation,
		// counted, not a wrong output. Under concurrent updates the
		// build can find a transaction's rows out of step with its
		// recorded Merkle root, because it rescans the live tables
		// instead of the pinned snapshot.
		r.receiptFailed.Add(1)
		r.checkMu.Lock()
		if r.receiptErr == nil {
			r.receiptErr = err
		}
		r.checkMu.Unlock()
		return
	}
	sp = r.tr.start("core.receipt_verify", parent, 0)
	t1 := time.Now()
	err = sqlledger.VerifyReadReceipt(rec, priv.Public().(ed25519.PublicKey))
	ver := time.Since(t1)
	sp.end()
	r.ops.note(err)
	r.check(err == nil, "read receipt does not verify offline: %v", err)
	r.check(len(rec.Rows) > 0, "read receipt proves no rows")
	ls.receiptUs = append(ls.receiptUs, us(build+ver))
	ls.receiptBytes = append(ls.receiptBytes, float64(len(rec.JSON())))
}

// readOne is one point read inside a snapshot transaction; a missing or
// wrong row fails the run.
func (r *run) readOne(rtx *sqlledger.ReadTx, lt *sqlledger.LedgerTable, id int64, check func(int64, sqlledger.Row) bool, parent uint64) {
	sp := r.tr.start("core.read_get", parent, 0)
	row, ok, err := rtx.Get(lt, sqlledger.BigInt(id))
	sp.end()
	r.ops.note(err)
	r.check(err == nil && ok, "point read of key %d in %s: found=%v err=%v", id, lt.Name(), ok, err)
	if err == nil && ok {
		r.check(check(id, row), "point read of key %d in %s returned a wrong row", id, lt.Name())
	}
}

// auditRounds takes a digest, creates an auditor and runs its catch-up
// cycle, then makes rounds of "one write, digest, incremental audit
// cycle".
func (r *run) auditRounds(db *sqlledger.DB, write func() error, rounds int, ls *ledgerSamples) error {
	// Start from a collected heap, so garbage from set-up is not charged
	// to these sub-millisecond operations.
	runtime.GC()
	if err := r.digest(db, ls, 0); err != nil {
		return err
	}
	a, err := db.NewAuditor(sqlledger.AuditorOptions{})
	if err != nil {
		return fmt.Errorf("new auditor: %w", err)
	}
	r.auditCycle(a, &ls.auditCatchUpMs, 0)
	for i := 0; i < rounds; i++ {
		if err := r.ops.note(write()); err != nil {
			return fmt.Errorf("write before digest: %w", err)
		}
		if err := r.digest(db, ls, 0); err != nil {
			return err
		}
		r.auditCycle(a, &ls.auditMs, 0)
	}
	return nil
}

// reopenVerify closes db, then reopens and fully verifies it against
// every digest in ls, reopens times. The digest taken after the first
// reopen must match the last one taken before close, all but its
// generation time, which is the wall clock at the call.
func (r *run) reopenVerify(db *sqlledger.DB, dir string, reg *sqlledger.MetricsRegistry, reopens int, ls *ledgerSamples) error {
	before := ls.digests[len(ls.digests)-1]
	if err := db.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	db, err := r.reopen(dir, reg, nil, ls)
	if err != nil {
		return err
	}
	after, err := db.GenerateDigest()
	if r.ops.note(err) != nil {
		db.Close()
		return fmt.Errorf("digest after reopen: %w", err)
	}
	r.check(sameDigest(before, after, false), "digest after reopen differs: before %s after %s", before.JSON(), after.JSON())
	r.verify(db, ls)
	if err := db.Close(); err != nil {
		return fmt.Errorf("close after verify: %w", err)
	}
	for i := 1; i < reopens; i++ {
		if err := r.reverify(dir, reg, ls); err != nil {
			return err
		}
	}
	return nil
}

// reverify reopens the closed database in dir, fully verifies it against
// every digest in ls and closes it again.
func (r *run) reverify(dir string, reg *sqlledger.MetricsRegistry, ls *ledgerSamples) error {
	db, err := r.reopen(dir, reg, nil, ls)
	if err != nil {
		return err
	}
	r.verify(db, ls)
	if err := db.Close(); err != nil {
		return fmt.Errorf("close after verify: %w", err)
	}
	return nil
}

// setupLedgerReopens is how many times the ledger phase reopens and
// verifies a set-up image.
const setupLedgerReopens = 3

// finishTimed ends the timed phase of a closed-loop workload with its
// correctness checks: a digest, an auditor catch-up cycle that must find
// no tamper, close, reopen, a digest that must match, a full Verify
// against the digest, and a walk of the database directory. userBytes
// is read before close. The measurements go to their own samples, not to
// the end-to-end metrics, which come from the fixed-size set-up images.
func (r *run) finishTimed(db *sqlledger.DB, dir string, reg *sqlledger.MetricsRegistry, userBytes func() (int64, error)) error {
	var final ledgerSamples
	if err := r.auditRounds(db, nil, 0, &final); err != nil {
		db.Close()
		return err
	}
	n, err := userBytes()
	if err != nil {
		db.Close()
		return fmt.Errorf("count user bytes: %w", err)
	}
	if err := r.reopenVerify(db, dir, reg, 1, &final); err != nil {
		return err
	}
	_, err = r.recordDisk(dir, n)
	return err
}

// imageBytes walks a closed set-up image and keeps its bytes per user
// byte for bytes_per_user_byte.
func (r *run) imageBytes(dir string, userBytes int64, ls *ledgerSamples) error {
	ratio, err := r.recordDisk(dir, userBytes)
	ls.bytesRatio = append(ls.bytesRatio, ratio)
	return err
}

package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"sqlledger"
	"sqlledger/internal/workload"
)

const (
	// rwRows is the preloaded table size.
	rwRows = 100_000
	// rwReceiptEvery makes every n-th reader transaction a receipt read.
	rwReceiptEvery = 16
	// rwWarmup is how many reader and writer transactions set-up runs,
	// untimed.
	rwWarmup = 500
	// rwSegment is the length of one segment of the timed phase. Between
	// segments the clients stop while the benchmark reopens and verifies
	// each set-up image and times one more preload, so the recovery_s,
	// verify_s and ingest_rows_per_s samples spread over the whole run
	// instead of crowding into its first seconds.
	rwSegment = 4 * time.Second
)

// rwRow is a row of the workload.ReadMostly table: the key, a version and
// a 200-byte payload derived from both.
func rwRow(id, version int64) sqlledger.Row {
	payload := make([]byte, 200)
	for i := range payload {
		payload[i] = byte('a' + (id+version+int64(i))%26)
	}
	return sqlledger.Row{sqlledger.BigInt(id), sqlledger.BigInt(version), sqlledger.VarChar(string(payload))}
}

// rwCheck accepts a row read back for key id: the key matches and the
// payload is the one written with the row's version.
func rwCheck(id int64, row sqlledger.Row) bool {
	return len(row) == 3 && row[0].Int() == id && row[2].Str == rwRow(id, row[1].Int())[2].Str
}

// rwState is one read-write database with its writer's version counter.
type rwState struct {
	db      *sqlledger.DB
	w       *workload.ReadMostly
	version int64
}

// update commits one single-row update at a random key, timed from Begin
// to the return of Commit.
func (r *run) rwUpdate(s *rwState, rng *rand.Rand) (time.Duration, error) {
	s.version++
	id := int64(rng.Intn(s.w.Rows))
	op := r.tr.op()
	root := r.tr.start("write_tx", 0, op)
	defer root.end()
	t0 := time.Now()
	tx := s.db.Begin("writer")
	sp := r.tr.start("core.dml", root.id(), op)
	err := tx.Update(s.w.LT, rwRow(id, s.version))
	sp.endN(1)
	if err != nil {
		tx.Rollback()
		return 0, err
	}
	sp = r.tr.start("core.commit", root.id(), op)
	err = tx.Commit()
	sp.end()
	return time.Since(t0), err
}

// rwRead runs one snapshot read transaction of workload.ReadsPerTx point
// reads. A receipt read also builds and offline-verifies its receipt.
func (r *run) rwRead(s *rwState, rng *rand.Rand, receipt bool, ls *ledgerSamples) time.Duration {
	keys := make([]int64, workload.ReadsPerTx)
	for i := range keys {
		keys[i] = int64(rng.Intn(s.w.Rows))
	}
	op := r.tr.op()
	root := r.tr.start("read_tx", 0, op)
	defer root.end()
	t0 := time.Now()
	if receipt {
		r.receiptRead(s.db, s.w.LT, keys, rwCheck, ls, root.id())
		return time.Since(t0)
	}
	rtx := s.db.BeginReadOnly()
	for _, id := range keys {
		r.readOne(rtx, s.w.LT, id, rwCheck, root.id())
	}
	rtx.Close()
	return time.Since(t0)
}

// userBytes sums the live user rows.
func (s *rwState) userBytes() (int64, error) {
	var n int64
	rtx := s.db.BeginReadOnly()
	defer rtx.Close()
	err := rtx.Scan(s.w.LT, func(row sqlledger.Row) bool {
		n += rowBytes(row)
		return true
	})
	return n, err
}

func (r *run) rwSetup(dir string, reg *sqlledger.MetricsRegistry) (*rwState, time.Duration, error) {
	db, err := openDB(dir, reg, nil)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	w, err := workload.NewReadMostly(db, rwRows)
	load := time.Since(t0)
	if err != nil {
		db.Close()
		return nil, 0, fmt.Errorf("preload: %w", err)
	}
	s := &rwState{db: db, w: w}
	rng := rand.New(rand.NewSource(r.seed*104729 + 1_000_000))
	var discard ledgerSamples
	for i := 0; i < rwWarmup; i++ {
		if _, err := r.rwUpdate(s, rng); err != nil {
			db.Close()
			return nil, 0, fmt.Errorf("warm-up update: %w", err)
		}
		r.rwRead(s, rng, false, &discard)
	}
	return s, load, nil
}

// noLock is a sync.Locker that never blocks.
type noLock struct{}

func (noLock) Lock()   {}
func (noLock) Unlock() {}

// runReadWrite runs the read-write workload. Unless overlap is set, the
// writer pauses while the reader makes a receipt read: CloseWithReceipt
// rebuilds each transaction's Merkle tree by rescanning the live table
// and its history, not the pinned snapshot, and an update committed
// during that rescan makes the build fail now and then ("content does
// not match transaction N's recorded Merkle root"). With overlap set
// (the read-write-overlap workload, run by hand) receipt reads run beside
// the writer and those failures show in failed and
// core.receipt_build_failed.
func runReadWrite(r *run, overlap bool) error {
	var (
		s      *rwState
		reg    *sqlledger.MetricsRegistry
		dir    string
		setups []float64
		ingest []float64
		images []*rwImage
	)
	rng := rand.New(rand.NewSource(r.seed*104729 + 3))
	update := func() error {
		_, err := r.rwUpdate(s, rng)
		return err
	}
	for i := 0; i < setupRepeats; i++ {
		reg = sqlledger.NewMetricsRegistry()
		dir = r.dbDir(fmt.Sprintf("read-write-%d", i))
		t0 := time.Now()
		var load time.Duration
		err := r.untraced(func() (err error) {
			s, load, err = r.rwSetup(dir, reg)
			return err
		})
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		ingest = append(ingest, float64(rwRows)/load.Seconds())
		if i < setupRepeats-1 {
			// The ledger phase runs on set-up images, whose size does
			// not depend on the timed phase's throughput.
			img := &rwImage{dir: dir, reg: reg}
			if err := r.auditRounds(s.db, update, ledgerRounds, &img.ls); err != nil {
				s.db.Close()
				return err
			}
			userBytes, err := s.userBytes()
			if err != nil {
				s.db.Close()
				return err
			}
			if err := r.reopenVerify(s.db, dir, reg, 1, &img.ls); err != nil {
				return err
			}
			if err := r.imageBytes(dir, userBytes, &img.ls); err != nil {
				return err
			}
			images = append(images, img)
		}
	}
	r.set("setup_s", median(setups))

	// Every reader transaction counts towards read_tx_per_s; read_p50_us
	// and read_p99_us are plain snapshot reads, and receipt_p50_us is the
	// median of the receipt reads. The wait for a paused writer is not
	// part of a receipt read's time. The build rescans the table and its
	// history, which grows by one row per update, but the writer is
	// paused for most of the phase, so the history stays a few percent
	// of the table.
	quiet := sync.Locker(&sync.Mutex{})
	if overlap {
		quiet = noLock{}
	}
	var (
		reads, plain, writes []sample
		timedReceipts        ledgerSamples
		// offset is the timed phase before the current segment, in
		// seconds; samples are stamped with their time in the phase.
		offset   float64
		readRng  = rand.New(rand.NewSource(r.seed*104729 + 1))
		writeRng = rand.New(rand.NewSource(r.seed*104729 + 2))
		readTxs  int
	)
	reader := func(start, deadline time.Time) {
		for time.Now().Before(deadline) {
			readTxs++
			receipt := readTxs%rwReceiptEvery == 0
			if receipt {
				quiet.Lock()
			}
			x := sample{us: us(r.rwRead(s, readRng, receipt, &timedReceipts))}
			if receipt {
				quiet.Unlock()
			}
			x.at = offset + time.Since(start).Seconds()
			reads = append(reads, x)
			if !receipt {
				plain = append(plain, x)
			}
		}
	}
	writer := func(start, deadline time.Time) {
		for time.Now().Before(deadline) {
			quiet.Lock()
			d, err := r.rwUpdate(s, writeRng)
			quiet.Unlock()
			if r.ops.note(err) == nil {
				writes = append(writes, sample{offset + time.Since(start).Seconds(), us(d)})
			}
		}
	}
	segments := max(1, int(r.seconds/rwSegment))
	before := s.db.Snapshot()
	var elapsed time.Duration
	for k := 0; k < segments; k++ {
		if k > 0 {
			if err := r.rwBreak(images, k, &ingest); err != nil {
				s.db.Close()
				return err
			}
		}
		runtime.GC()
		stopGauges := r.sampleGauges(reg)
		offset = elapsed.Seconds()
		elapsed += timed(r.seconds/time.Duration(segments), reader, writer)
		stopGauges()
	}
	r.set("ingest_rows_per_s", median(ingest))
	secs := int(elapsed / time.Second)
	r.setGrouped("tx_per_s", "tx", bySecond(writes, elapsed), ones(secs))
	rate, _, _ := grouped(bySecond(reads, elapsed), ones(secs))
	r.setGrouped("read_tx_per_s", "read", bySecond(plain, elapsed), ones(secs))
	r.set("read_tx_per_s", rate)

	stopGauges := r.sampleGauges(reg)
	err := r.finishTimed(s.db, dir, reg, s.userBytes)
	stopGauges()
	r.delta = regDelta{before: before, after: reg.Snapshot()}
	if err != nil {
		return err
	}
	var ls ledgerSamples
	for _, img := range images {
		ls.append(&img.ls)
	}
	ls.receiptUs, ls.receiptBytes = timedReceipts.receiptUs, timedReceipts.receiptBytes
	r.setLedger(&ls)
	return nil
}

// rwImage is a closed set-up image of the read-write workload with the
// ledger samples taken on it.
type rwImage struct {
	dir string
	reg *sqlledger.MetricsRegistry
	ls  ledgerSamples
}

// rwBreak is the work between segments k-1 and k of the timed phase:
// reopen and verify every set-up image, then time one preload into a
// fresh database, which is removed again.
func (r *run) rwBreak(images []*rwImage, k int, ingest *[]float64) error {
	for _, img := range images {
		if err := r.reverify(img.dir, img.reg, &img.ls); err != nil {
			return err
		}
	}
	return r.untraced(func() error {
		dir := r.dbDir(fmt.Sprintf("read-write-load-%d", k))
		defer os.RemoveAll(dir)
		ldb, err := openDB(dir, sqlledger.NewMetricsRegistry(), nil)
		if err != nil {
			return err
		}
		t0 := time.Now()
		_, err = workload.NewReadMostly(ldb, rwRows)
		*ingest = append(*ingest, float64(rwRows)/time.Since(t0).Seconds())
		ldb.Close()
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		return nil
	})
}

package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"sqlledger"
	"sqlledger/internal/workload"
)

// tpccTypes are the five TPC-C transaction types in mix order.
var tpccTypes = [...]string{"new_order", "payment", "order_status", "delivery", "stock_level"}

// tpccWrites marks the types that write; their commits are the write
// transactions of tx_*. The read transactions of read_* are Order-Status
// alone: Stock-Level's scans take ten times longer, so a median over a
// mix of the two would jump between them.
var tpccWrites = [...]bool{true, true, false, true, false}

const tpccRead = 2 // order_status

// tpccTables are the tables workload.NewTPCC creates.
var tpccTables = []string{
	"tpcc_warehouse", "tpcc_district", "tpcc_customer", "tpcc_item", "tpcc_stock",
	"tpcc_payment_history", "tpcc_orders", "tpcc_new_order", "tpcc_order_line",
}

const (
	tpccClients    = 2
	tpccWarehouses = 2
	// tpccWarmupTx is how many mix transactions each client runs during
	// set-up, untimed.
	tpccWarmupTx = 1500
	// tpccReceipts is how many receipt reads of payment-history rows the
	// ledger phase makes, each of tpccReceiptKeys rows.
	tpccReceipts    = 16
	tpccReceiptKeys = 16
	// tpccExtraLoads is how many more TPC-C loads set-up times, beyond
	// the one of each set-up, for ingest_rows_per_s: one load takes a few
	// tens of milliseconds.
	tpccExtraLoads = 6
)

// tpccPick draws a transaction type from the standard mix: 45% New-Order,
// 43% Payment, 4% each Order-Status, Delivery and Stock-Level (the same
// split as workload.TPCCClient.RunOne).
func tpccPick(rng *rand.Rand) int {
	switch x := rng.Intn(100); {
	case x < 45:
		return 0
	case x < 88:
		return 1
	case x < 92:
		return 2
	case x < 96:
		return 3
	default:
		return 4
	}
}

func tpccCall(t *workload.TPCC, k int, rng *rand.Rand) error {
	switch k {
	case 0:
		return t.NewOrder(rng)
	case 1:
		return t.Payment(rng)
	case 2:
		return t.OrderStatus(rng)
	case 3:
		return t.Delivery(rng)
	default:
		return t.StockLevel(rng)
	}
}

// tpccClient is one closed-loop client's counts and latencies (µs of
// committed transactions), per type.
type tpccClient struct {
	ok, failed [len(tpccTypes)]int64
	lat        [len(tpccTypes)][]sample
}

// tpccSetup opens a database, loads TPC-C on ledger tables and runs the
// untimed warm-up. It returns the rows the load wrote and its duration.
func (r *run) tpccSetup(dir string, reg *sqlledger.MetricsRegistry) (*sqlledger.DB, *workload.TPCC, int64, time.Duration, error) {
	db, err := openDB(dir, reg, nil)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	t0 := time.Now()
	t, err := workload.NewTPCC(db, true, tpccWarehouses)
	load := time.Since(t0)
	if err != nil {
		db.Close()
		return nil, nil, 0, 0, fmt.Errorf("load tpcc: %w", err)
	}
	rows, _, err := tpccLive(t)
	if err != nil {
		db.Close()
		return nil, nil, 0, 0, err
	}
	var clients []func(start, deadline time.Time)
	for c := 0; c < tpccClients; c++ {
		rng := rand.New(rand.NewSource(r.seed*7919 + int64(c) + 1_000_000))
		clients = append(clients, func(_, _ time.Time) {
			for i := 0; i < tpccWarmupTx; i++ {
				r.ops.note(tpccCall(t, tpccPick(rng), rng))
			}
		})
	}
	timed(0, clients...)
	return db, t, rows, load, nil
}

// tpccLive scans every TPC-C table and returns the live row count and
// their user bytes.
func tpccLive(t *workload.TPCC) (rows, bytes int64, err error) {
	s := t.Begin("ledgerperf")
	defer s.Rollback()
	for _, name := range tpccTables {
		tb, err := t.Table(name)
		if err != nil {
			return 0, 0, err
		}
		if err := s.ScanPrefix(tb, func(row sqlledger.Row) bool {
			rows++
			bytes += rowBytes(row)
			return true
		}); err != nil {
			return 0, 0, fmt.Errorf("scan %s: %w", name, err)
		}
	}
	return rows, bytes, nil
}

func tpccUserBytes(t *workload.TPCC) (int64, error) {
	_, b, err := tpccLive(t)
	return b, err
}

// tpccBrokenDistricts counts districts whose next order ID is not above
// the highest order ID they hold: New-Order can never commit there again,
// because its order insert collides with an existing key.
func tpccBrokenDistricts(t *workload.TPCC) (int, error) {
	type wd struct{ w, d int64 }
	next := make(map[wd]int64)
	top := make(map[wd]int64)
	s := t.Begin("ledgerperf")
	defer s.Rollback()
	district, err := t.Table("tpcc_district")
	if err != nil {
		return 0, err
	}
	orders, err := t.Table("tpcc_orders")
	if err != nil {
		return 0, err
	}
	if err := s.ScanPrefix(district, func(row sqlledger.Row) bool {
		next[wd{row[0].Int(), row[1].Int()}] = row[3].Int()
		return true
	}); err != nil {
		return 0, err
	}
	if err := s.ScanPrefix(orders, func(row sqlledger.Row) bool {
		k := wd{row[0].Int(), row[1].Int()}
		top[k] = max(top[k], row[2].Int())
		return true
	}); err != nil {
		return 0, err
	}
	broken := 0
	for k, n := range next {
		if o, ok := top[k]; ok && n <= o {
			broken++
		}
	}
	return broken, nil
}

// tpccLedger is the ledger phase on a set-up image: digest and audit
// rounds with Payments as the writes, receipt reads of payment-history
// rows, then close, reopen and verify. The image's size does not depend
// on the timed phase's throughput, so neither do these measurements.
func (r *run) tpccLedger(db *sqlledger.DB, t *workload.TPCC, dir string, reg *sqlledger.MetricsRegistry, all *ledgerSamples) error {
	var ls ledgerSamples
	defer all.append(&ls)
	rng := rand.New(rand.NewSource(r.seed*7919 + 99))
	if err := r.auditRounds(db, func() error { return t.Payment(rng) }, ledgerRounds, &ls); err != nil {
		db.Close()
		return err
	}
	history, err := db.LedgerTable("tpcc_payment_history")
	if err != nil {
		db.Close()
		return err
	}
	var hIDs []int64
	rtx := db.BeginReadOnly()
	err = rtx.Scan(history, func(row sqlledger.Row) bool {
		hIDs = append(hIDs, row[0].Int())
		return true
	})
	rtx.Close()
	if err != nil {
		db.Close()
		return fmt.Errorf("scan payment history: %w", err)
	}
	for i := 0; i < tpccReceipts; i++ {
		keys := make([]int64, tpccReceiptKeys)
		for j := range keys {
			keys[j] = hIDs[rng.Intn(len(hIDs))]
		}
		r.receiptRead(db, history, keys, func(id int64, row sqlledger.Row) bool { return row[0].Int() == id }, &ls, 0)
	}
	userBytes, err := tpccUserBytes(t)
	if err != nil {
		db.Close()
		return err
	}
	if err := r.reopenVerify(db, dir, reg, setupLedgerReopens, &ls); err != nil {
		return err
	}
	return r.imageBytes(dir, userBytes, &ls)
}

func runTPCC(r *run) error {
	var (
		db       *sqlledger.DB
		t        *workload.TPCC
		reg      *sqlledger.MetricsRegistry
		dir      string
		setups   []float64
		ingest   []float64
		loadRows int64
		ls       ledgerSamples
	)
	for i := 0; i < setupRepeats; i++ {
		reg = sqlledger.NewMetricsRegistry()
		dir = r.dbDir(fmt.Sprintf("tpcc-%d", i))
		t0 := time.Now()
		var load time.Duration
		err := r.untraced(func() (err error) {
			db, t, loadRows, load, err = r.tpccSetup(dir, reg)
			return err
		})
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		ingest = append(ingest, float64(loadRows)/load.Seconds())
		if i < setupRepeats-1 {
			if err := r.tpccLedger(db, t, dir, reg, &ls); err != nil {
				return err
			}
		}
	}
	err := r.untraced(func() error {
		for i := 0; i < tpccExtraLoads; i++ {
			d := r.dbDir(fmt.Sprintf("tpcc-load-%d", i))
			ldb, err := openDB(d, sqlledger.NewMetricsRegistry(), nil)
			if err != nil {
				return err
			}
			t0 := time.Now()
			_, err = workload.NewTPCC(ldb, true, tpccWarehouses)
			ingest = append(ingest, float64(loadRows)/time.Since(t0).Seconds())
			ldb.Close()
			if err != nil {
				return fmt.Errorf("load tpcc: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		db.Close()
		return err
	}
	r.set("setup_s", median(setups))
	r.set("ingest_rows_per_s", median(ingest))
	r.meta["load_rows"] = loadRows

	runtime.GC()
	stopGauges := r.sampleGauges(reg)
	before := db.Snapshot()
	clients := make([]*tpccClient, tpccClients)
	var loops []func(start, deadline time.Time)
	for c := range clients {
		cl := &tpccClient{}
		clients[c] = cl
		rng := rand.New(rand.NewSource(r.seed*7919 + int64(c)))
		loops = append(loops, func(start, deadline time.Time) {
			for time.Now().Before(deadline) {
				k := tpccPick(rng)
				sp := r.tr.start("workload.tpcc."+tpccTypes[k], 0, r.tr.op())
				t0 := time.Now()
				err := tpccCall(t, k, rng)
				el := time.Since(t0)
				sp.end()
				if r.ops.note(err) != nil {
					cl.failed[k]++
					continue
				}
				cl.ok[k]++
				cl.lat[k] = append(cl.lat[k], sample{time.Since(start).Seconds(), us(el)})
			}
		})
	}
	elapsed := timed(r.seconds, loops...)

	var writes, reads []sample
	for k, name := range tpccTypes {
		var ok, failed int64
		var lat []float64
		for _, cl := range clients {
			ok += cl.ok[k]
			failed += cl.failed[k]
			for _, x := range cl.lat[k] {
				lat = append(lat, x.us)
			}
			if tpccWrites[k] {
				writes = append(writes, cl.lat[k]...)
			} else if k == tpccRead {
				reads = append(reads, cl.lat[k]...)
			}
		}
		p50, _ := percentile(lat, 0.5)
		r.set("workload.tpcc."+name+".ok", float64(ok))
		r.set("workload.tpcc."+name+".failed", float64(failed))
		r.set("workload.tpcc."+name+".p50_us", p50)
	}
	secs := int(elapsed / time.Second)
	r.setGrouped("tx_per_s", "tx", bySecond(writes, elapsed), ones(secs))
	r.setGrouped("read_tx_per_s", "read", bySecond(reads, elapsed), ones(secs))

	broken, err := tpccBrokenDistricts(t)
	if err != nil {
		db.Close()
		return fmt.Errorf("count broken districts: %w", err)
	}
	r.set("workload.tpcc.broken_districts", float64(broken))
	err = r.finishTimed(db, dir, reg, func() (int64, error) { return tpccUserBytes(t) })
	stopGauges()
	r.delta = regDelta{before: before, after: reg.Snapshot()}
	if err != nil {
		return err
	}
	r.setLedger(&ls)
	return nil
}

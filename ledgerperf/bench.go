package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqlledger"
	"sqlledger/internal/obs"
)

// setupRepeats is how many times each workload sets up per run; setup_s
// is the median, so one slow set-up does not move it.
const setupRepeats = 3

// run is one invocation of one workload: its settings, the operation
// counts, the samples the end-to-end metrics are computed from, and the
// correctness checks that failed.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	tr       *tracer // nil unless --trace 1
	work     string  // directory that holds this run's databases

	ops     opCounter
	metrics map[string]float64
	meta    map[string]any

	// checkMu guards checks, and receiptErr, the first receipt build
	// error, while clients run.
	checkMu       sync.Mutex
	checks        []string
	receiptErr    error
	receiptFailed atomic.Int64

	// Registry window of the timed phase plus the ledger epilogue, and
	// the gauge maxima sampled during it (traced runs only).
	delta    regDelta
	queueMax float64
	heapMax  float64
}

// check records a failed correctness check when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.checkMu.Lock()
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
		r.checkMu.Unlock()
	}
}

// untraced runs set-up with tracing off, so traced runs record spans of
// the measured phase only.
func (r *run) untraced(f func() error) error {
	tr := r.tr
	r.tr = nil
	defer func() { r.tr = tr }()
	return f()
}

// set stores a metric value.
func (r *run) set(name string, v float64) { r.metrics[name] = v }

// dbDir returns a fresh database directory under the run's work dir.
func (r *run) dbDir(name string) string {
	return filepath.Join(r.work, name)
}

// openDB opens a database the way every workload does: SyncFull (fsync
// on every commit), default lock timeout, default trace sampling and
// default block size, with metrics recorded into reg. Every database has
// the same name, which digests carry, so that runs in different
// directories can produce identical digests.
func openDB(dir string, reg *sqlledger.MetricsRegistry, clock func() int64) (*sqlledger.DB, error) {
	return sqlledger.Open(sqlledger.Options{
		Dir: dir, Name: "ledgerperf", Sync: sqlledger.SyncFull, Obs: reg, Clock: clock,
	})
}

// signingKey derives the receipt signing key from the seed.
func signingKey(seed int64) ed25519.PrivateKey {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h := sha256.Sum256(append([]byte("ledgerperf-receipt-key"), b[:]...))
	return ed25519.NewKeyFromSeed(h[:])
}

// valueBytes is the user-data width of one value: 8 bytes for BIGINT,
// FLOAT, DECIMAL and DATETIME, the natural width of the smaller integer
// types, the byte length of character and binary data, and 0 for NULL.
// bytes_per_user_byte divides disk use by the sum of these widths over
// the live user rows.
func valueBytes(v sqlledger.Value) int64 {
	if v.Null {
		return 0
	}
	switch v.Type {
	case sqlledger.TypeBit, sqlledger.TypeTinyInt:
		return 1
	case sqlledger.TypeSmallInt:
		return 2
	case sqlledger.TypeInt:
		return 4
	case sqlledger.TypeUniqueID:
		return 16
	case sqlledger.TypeChar, sqlledger.TypeVarChar, sqlledger.TypeNVarChar:
		return int64(len(v.Str))
	case sqlledger.TypeBinary, sqlledger.TypeVarBinary:
		return int64(len(v.Bytes))
	default:
		return 8
	}
}

func rowBytes(row sqlledger.Row) int64 {
	var n int64
	for _, v := range row {
		n += valueBytes(v)
	}
	return n
}

// diskUse is a walk of a database directory after close.
type diskUse struct{ wal, snapshot, other int64 }

func (d diskUse) total() int64 { return d.wal + d.snapshot + d.other }

func walkDisk(dir string) (diskUse, error) {
	var d diskUse
	err := filepath.WalkDir(dir, func(p string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		switch name := e.Name(); {
		case name == "wal.log":
			d.wal += info.Size()
		case strings.HasSuffix(name, ".snap"):
			d.snapshot += info.Size()
		default:
			d.other += info.Size()
		}
		return nil
	})
	return d, err
}

// recordDisk fills the disk metrics of a closed database holding
// userBytes of live user data and returns its bytes on disk per user
// byte.
func (r *run) recordDisk(dir string, userBytes int64) (float64, error) {
	d, err := walkDisk(dir)
	if err != nil {
		return 0, fmt.Errorf("disk walk of %s: %w", dir, err)
	}
	r.set("disk.wal_bytes", float64(d.wal))
	r.set("disk.snapshot_bytes", float64(d.snapshot))
	r.set("disk.other_bytes", float64(d.other))
	r.meta["user_bytes"] = userBytes
	return ratio(float64(d.total()), float64(userBytes)), nil
}

// sampleGauges polls the ledger queue length and heap size every few
// milliseconds until stop is called; traced runs only.
func (r *run) sampleGauges(reg *sqlledger.MetricsRegistry) (stop func()) {
	if r.tr == nil {
		return func() {}
	}
	stopRuntime := sqlledger.StartRuntimeSampler(reg, 20*time.Millisecond)
	queue, heap := reg.Gauge(obs.LedgerQueueLength), reg.Gauge(obs.RuntimeHeapAllocBytes)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				r.queueMax = max(r.queueMax, queue.Value())
				r.heapMax = max(r.heapMax, heap.Value())
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		stopRuntime()
	}
}

// timed runs one closed-loop client per element of clients until the
// deadline and waits for all of them. Each client gets the start of the
// timed phase, to stamp its samples, and the deadline.
func timed(seconds time.Duration, clients ...func(start, deadline time.Time)) time.Duration {
	start := time.Now()
	deadline := start.Add(seconds)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c func(start, deadline time.Time)) {
			defer wg.Done()
			c(start, deadline)
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// setLatency stores the median and p99 of xs under prefix_p50_us and
// prefix_p99_us. When fewer than minTail samples lie beyond the p99, the
// largest sample is reported instead and the shortfall is recorded in the
// run metadata.
func (r *run) setLatency(prefix string, xs []float64) {
	p50, _ := percentile(xs, 0.50)
	p99, ok := percentile(xs, 0.99)
	if !ok {
		p99 = maxOf(xs)
		r.meta[prefix+"_p99_note"] = fmt.Sprintf("only %d samples: fewer than %d beyond p99, reporting the maximum", len(xs), minTail)
	}
	r.set(prefix+"_p50_us", p50)
	r.set(prefix+"_p99_us", p99)
	r.meta[prefix+"_samples"] = len(xs)
}

// setGrouped stores a throughput under rateName and latencies under
// prefix from grouped samples (see grouped): the rate and p50 are medians
// over groups, the p99 is taken over all samples.
func (r *run) setGrouped(rateName, prefix string, groups [][]float64, durs []float64) {
	rate, p50, pooled := grouped(groups, durs)
	r.setLatency(prefix, pooled)
	r.set(rateName, rate)
	r.set(prefix+"_p50_us", p50)
}

// runMeta is the metadata every result carries.
func runMeta(workload string, seed int64, clients int) map[string]any {
	return map[string]any{
		"workload":     workload,
		"seed":         seed,
		"clients":      clients,
		"go_version":   runtime.Version(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"flush_policy": "SyncFull (fsync on every commit)",
		"lock_timeout": "2s (engine default)",
		"commit":       sourceVersion(),
	}
}

// sourceVersion identifies the code under test: the git commit when the
// checkout is a repository, otherwise a SHA-256 over every Go source and
// go.mod file of the checkout.
func sourceVersion() string {
	if b, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(b))
		if strings.HasPrefix(ref, "ref: ") {
			if c, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: "))); err == nil {
				return strings.TrimSpace(string(c))
			}
		}
		return ref
	}
	h := sha256.New()
	_ = filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && strings.HasPrefix(e.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(p, ".go") || e.Name() == "go.mod") {
			if b, err := os.ReadFile(p); err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return fmt.Sprintf("source-sha256:%x", h.Sum(nil))
}

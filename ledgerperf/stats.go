package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sqlledger/internal/obs"
)

// minTail is how many samples must lie beyond a tail percentile before it
// is reported: with fewer, the "p99" is just the few largest samples.
const minTail = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs and
// whether at least minTail samples lie beyond it. The second result is
// what decides if a tail percentile may be reported; for a median it
// only says the sample is not tiny.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sorted(xs)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s)-rank >= minTail
}

// median is the middle value of xs (the mean of the two middle values for
// an even count), 0 for none. Per-run aggregates use it so that one slow
// repetition cannot move the reported number.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sample is one completed operation: when it finished, in seconds since
// the timed phase began, and how long it took in µs.
type sample struct{ at, us float64 }

// bySecond splits samples into the whole seconds of a timed phase that
// lasted elapsed, dropping a final partial second. Each group holds the
// latencies of the operations that finished in that second.
func bySecond(xs []sample, elapsed time.Duration) [][]float64 {
	groups := make([][]float64, int(elapsed/time.Second))
	for _, x := range xs {
		if i := int(x.at); i < len(groups) {
			groups[i] = append(groups[i], x.us)
		}
	}
	return groups
}

// grouped summarises latencies measured in groups that each lasted
// durs[i] seconds (whole seconds of a timed phase, or whole lifecycles):
// the median over groups of the group's operations per second and of its
// median latency, so a burst of interference that slows a minority of
// groups does not move either. The pooled samples are returned for tail
// percentiles, which need every sample.
func grouped(groups [][]float64, durs []float64) (rate, p50 float64, pooled []float64) {
	var rates, p50s []float64
	for i, g := range groups {
		rates = append(rates, ratio(float64(len(g)), durs[i]))
		if len(g) > 0 {
			p50s = append(p50s, median(g))
		}
		pooled = append(pooled, g...)
	}
	return median(rates), median(p50s), pooled
}

// ones returns n durations of one second.
func ones(n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = 1
	}
	return d
}

// maxOf returns the largest of xs, 0 for none.
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// ratio returns num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// us and ms convert a duration to fractional micro- and milliseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opCounter counts attempted and failed operations of every kind. Every
// operation the benchmark issues goes through it: nothing is retried and
// nothing is filtered.
type opCounter struct {
	attempted, failed atomic.Int64
}

// note counts one operation and passes its error through.
func (c *opCounter) note(err error) error {
	c.attempted.Add(1)
	if err != nil {
		c.failed.Add(1)
	}
	return err
}

// failedRatio is failed ÷ attempted.
func (c *opCounter) failedRatio() float64 {
	return ratio(float64(c.failed.Load()), float64(c.attempted.Load()))
}

// span is one timed call recorded by a traced run. Times are nanoseconds
// since the tracer started. Op groups the spans of one operation (one
// transaction, one lifecycle step); Parent is 0 for a root span.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Items is how many rows the call handled, for per-row costs; 0
	// means one.
	Items int `json:"items,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so untraced runs pay one nil
// check per call site.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	nextOp atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op allocates an operation ID.
func (tr *tracer) op() uint64 {
	if tr == nil {
		return 0
	}
	return tr.nextOp.Add(1)
}

// activeSpan is a started, unfinished span.
type activeSpan struct {
	tr *tracer
	s  span
}

// start opens a span named name under parent (0 for a root).
func (tr *tracer) start(name string, parent, op uint64) activeSpan {
	if tr == nil {
		return activeSpan{}
	}
	return activeSpan{tr: tr, s: span{
		ID: tr.nextID.Add(1), Parent: parent, Op: op, Name: name,
		Start: time.Since(tr.t0).Nanoseconds(),
	}}
}

// id is the span's ID, for use as a child's parent.
func (a activeSpan) id() uint64 { return a.s.ID }

// end finishes the span and stores it.
func (a activeSpan) end() { a.endN(0) }

// endN finishes a span that handled n rows.
func (a activeSpan) endN(n int) {
	if a.tr == nil {
		return
	}
	a.s.Items = n
	a.s.End = time.Since(a.tr.t0).Nanoseconds()
	a.tr.mu.Lock()
	a.tr.spans = append(a.tr.spans, a.s)
	a.tr.mu.Unlock()
}

// all returns the recorded spans.
func (tr *tracer) all() []span {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]span(nil), tr.spans...)
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its children cover. Overlapping
// children (parallel work under one parent) are counted once.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		curStart, curEnd := int64(0), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > curStart {
					covered += curEnd - curStart
				}
				curStart, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > curStart {
			covered += curEnd - curStart
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// spanDurations returns the durations (µs) of every span named name,
// each divided by the rows it handled when it recorded a count.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e3/float64(max(s.Items, 1)))
		}
	}
	return out
}

// selfDurations returns the self times (µs) of every span named name.
func selfDurations(spans []span, self map[uint64]int64, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[s.ID])/1e3)
		}
	}
	return out
}

// regDelta is the change of the program's metrics registry over a window.
type regDelta struct{ before, after obs.Snapshot }

func labelsMatch(have, want []obs.Label) bool {
	if len(have) != len(want) {
		return false
	}
	for i := range want {
		if have[i] != want[i] {
			return false
		}
	}
	return true
}

// counter is the growth of one counter series (all series when no label
// is given).
func (d regDelta) counter(name string, labels ...obs.Label) int64 {
	val := func(s obs.Snapshot) int64 {
		var v int64
		for _, c := range s.Counters {
			if c.Name == name && (len(labels) == 0 || labelsMatch(c.Labels, labels)) {
				v += c.Value
			}
		}
		return v
	}
	return val(d.after) - val(d.before)
}

// hist is the histogram of observations made inside the window: bucket
// counts and sums are subtracted, so Quantile applies to the window only.
func (d regDelta) hist(name string, labels ...obs.Label) obs.HistogramSnapshot {
	after, ok := d.after.Histogram(name, labels...)
	if !ok {
		return obs.HistogramSnapshot{Name: name}
	}
	before, ok := d.before.Histogram(name, labels...)
	if !ok {
		return after
	}
	out := obs.HistogramSnapshot{
		Name: name, Labels: after.Labels,
		Count: after.Count - before.Count, Sum: after.Sum - before.Sum,
		Buckets: make([]obs.BucketSnapshot, len(after.Buckets)),
	}
	for i, b := range after.Buckets {
		out.Buckets[i] = obs.BucketSnapshot{UpperBound: b.UpperBound, Count: b.Count}
		if i < len(before.Buckets) {
			out.Buckets[i].Count -= before.Buckets[i].Count
		}
	}
	return out
}

// quantile estimates the window's q-quantile of a histogram, scaled by
// unit (e.g. 1e6 to turn seconds into µs).
func (d regDelta) quantile(name string, q, unit float64, labels ...obs.Label) float64 {
	return d.hist(name, labels...).Quantile(q) * unit
}

// gauge is the gauge's value at the end of the window.
func (d regDelta) gauge(name string) float64 {
	v, _ := d.after.GaugeValue(name)
	return v
}

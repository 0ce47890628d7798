package main

import (
	"fmt"
	"time"
)

// metricVal is one reported number.
type metricVal struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`    // samples behind a timing
	Note  string  `json:"note,omitempty"` // e.g. which percentile a refused tail fell back to
	// Samples are the repetitions a median was taken over.
	Samples []float64 `json:"samples,omitempty"`
	// RecordOnly metrics go to the record and the table but not to the
	// JSON summary line, which holds exactly the metrics BENCHMARK.json
	// lists: error counts that are zero whenever a run is correct, and
	// layers idle on every listed workload.
	RecordOnly bool `json:"record_only,omitempty"`
}

// exactness compares what the cluster delivered with the oracle.
type exactness struct {
	Expected         uint64  `json:"expected"`
	Delivered        uint64  `json:"delivered"`
	Missed           int64   `json:"missed"`
	Extra            int64   `json:"extra"`
	Duplicates       int64   `json:"duplicates"`
	FailedIngest     int64   `json:"failed_ingest"`
	FingerprintMatch bool    `json:"fingerprint_match"`
	Failed           int64   `json:"failed"`
	ErrorRatio       float64 `json:"error_ratio"`
}

func (e *exactness) add(o exactness) {
	e.Expected += o.Expected
	e.Delivered += o.Delivered
	e.Missed += o.Missed
	e.Extra += o.Extra
	e.Duplicates += o.Duplicates
	e.FailedIngest += o.FailedIngest
	e.Failed += o.Failed
	e.FingerprintMatch = e.FingerprintMatch && o.FingerprintMatch
	if e.Expected > 0 {
		e.ErrorRatio = float64(e.Failed) / float64(e.Expected)
	}
}

// check scores one distq phase against its oracle: misses, duplicates
// and failed Ingest calls count against the expected results; a
// fingerprint mismatch with the counts right is at least one wrong
// result.
func check(p *phaseResult, ex expectation) exactness {
	e := exactness{
		Expected:     ex.results,
		Delivered:    p.delivered,
		Duplicates:   int64(p.duplicates),
		FailedIngest: int64(p.failedIngest),
	}
	unique := int64(p.delivered) - e.Duplicates
	if d := int64(ex.results) - unique; d > 0 {
		e.Missed = d
	} else {
		e.Extra = -d
	}
	e.FingerprintMatch = e.Duplicates == 0 && p.fingerprint == ex.fingerprint
	e.Failed = e.Missed + e.Extra + e.Duplicates + e.FailedIngest
	if e.Failed == 0 && !e.FingerprintMatch {
		e.Failed = 1
	}
	if ex.results > 0 {
		e.ErrorRatio = float64(e.Failed) / float64(ex.results)
	}
	return e
}

// Sustainability limits of an open-loop phase: a generator running
// later than this, or a Drain that still had this much work queued,
// means the offered load was not kept up with and the latency measured
// is backlog.
const (
	maxGenLagP99 = 250 * time.Millisecond
	maxDrain     = 2 * time.Second
)

// outcome is what one run (untraced or traced) of a workload measured.
type outcome struct {
	e2e    []metricVal
	layers []metricVal // traced runs only
	exact  exactness
	notes  []string

	genLagP99Ms float64 // worst open-loop phase; 0 for a closed loop only
	genLagP50Ms float64
	genLagMaxMs float64
	drainS      float64
	sustained   bool

	tuples   int
	ingestUs []float64 // every Ingest call's wall time

	phases  []*phaseResult
	expects []expectation
}

// maxOf is the largest of xs, 0 for none.
func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func (o *outcome) metric(name string) (metricVal, bool) {
	for _, m := range o.e2e {
		if m.Name == name {
			return m, true
		}
	}
	return metricVal{}, false
}

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// distqOutcome turns a distq workload's phases into its end-to-end
// metrics: throughput from the closed-loop phases (or the open loops if
// there are none), latency over the pooled results of the open loops,
// CPU over every phase. A quantity measured once per repetition (set-up
// included) is the median over the repetitions; the heap peak is the
// larger of the closed and open loops' median peaks.
func distqOutcome(phases []*phaseResult, expects []expectation, closedLoop, openLoop []*phaseResult) (*outcome, error) {
	o := &outcome{phases: phases, expects: expects, exact: exactness{FingerprintMatch: true}}
	var cpu time.Duration
	var setups, cleanups []time.Duration
	for i, p := range phases {
		o.exact.add(check(p, expects[i]))
		o.tuples += p.tuples
		cpu += p.cpu
		setups = append(setups, p.setup)
		cleanups = append(cleanups, p.cleanup)
		o.ingestUs = append(o.ingestUs, p.ingestUs...)
	}

	peak := func(ps []*phaseResult) float64 {
		var mb []float64
		for _, p := range ps {
			mb = append(mb, float64(p.peakHeap)/(1<<20))
		}
		return median(mb)
	}
	peakMB := max(peak(closedLoop), peak(openLoop))
	if len(closedLoop) == 0 {
		closedLoop = openLoop
	}
	var tps []float64
	for _, p := range closedLoop {
		tps = append(tps, float64(p.tuples)/p.elapsed.Seconds())
	}
	var pooled, results, lagP50, lagP99, lagMax, drains []float64
	for _, p := range openLoop {
		pooled = append(pooled, p.latencyMs...)
		results = append(results, float64(p.runtime))
		lag := sortedCopy(p.lagMs)
		if v, err := percentile(lag, 0.99); err == nil {
			lagP50, lagP99, lagMax = append(lagP50, median(lag)), append(lagP99, v), append(lagMax, lag[len(lag)-1])
		}
		drains = append(drains, p.drain.Seconds())
	}
	lat := sortedCopy(pooled)
	p50, err := percentile(lat, 0.5)
	if err != nil {
		return nil, fmt.Errorf("latency p50: %w", err)
	}
	p99, err := percentile(lat, 0.99)
	if err != nil {
		return nil, fmt.Errorf("latency p99: %w", err)
	}
	o.e2e = []metricVal{
		{Name: "ingest_tps", Value: median(tps), Unit: "tuples/s", N: len(tps), Samples: tps},
		{Name: "latency_p50_ms", Value: p50, Unit: "ms", N: len(lat)},
		{Name: "latency_p99_ms", Value: p99, Unit: "ms", N: len(lat)},
		{Name: "cpu_ms_per_ktuple", Value: ms(cpu) / (float64(o.tuples) / 1000), Unit: "ms/ktuple"},
		{Name: "peak_heap_mb", Value: peakMB, Unit: "MB"},
		{Name: "runtime_results", Value: median(results), Unit: "results", Samples: results},
		{Name: "cleanup_s", Value: median(durations(cleanups)), Unit: "s", N: len(cleanups), Samples: durations(cleanups)},
		{Name: "setup_s", Value: median(durations(setups)), Unit: "s", N: len(setups), Samples: durations(setups)},
		{Name: "error_ratio", Value: o.exact.ErrorRatio, Unit: "share", RecordOnly: true},
	}
	o.genLagP50Ms, o.genLagP99Ms, o.genLagMaxMs = maxOf(lagP50), maxOf(lagP99), maxOf(lagMax)
	o.drainS = maxOf(drains)
	o.sustained = o.genLagP99Ms <= ms(maxGenLagP99) && o.drainS <= maxDrain.Seconds()
	return o, nil
}

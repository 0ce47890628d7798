// Package cleanup implements the state cleanup process of the paper's
// state spill adaptation: after the run-time phase, disk-resident partition
// group generations are merged with each other and with the final
// memory-resident generation to produce exactly the results the run-time
// phase missed — no duplicates, no misses.
//
// Correctness argument. Within one partition group, a tuple joins at
// arrival with precisely the co-resident tuples, i.e. those of its own
// generation (earlier generations are on disk). So the run-time output of
// a group is exactly the set of matches whose members all share one
// generation, and the missed results are exactly the matches spanning at
// least two generations. Processing generations in ascending order while
// maintaining the union of older generations ("old"), each tuple t of the
// current generation enumerates partner combinations drawn from old plus
// the already-processed part of its own generation ("cur"), keeping only
// combinations with at least one old member. A match whose members'
// maximal generation is i is emitted exactly once — while processing the
// last of its generation-i members — and all-same-generation matches are
// never emitted. This is the incremental view maintenance formulation the
// paper cites, made possible by the partition-group granularity: no
// per-tuple timestamps are needed.
package cleanup

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/spill"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// GroupResult summarizes the cleanup of one partition group.
type GroupResult struct {
	ID          partition.ID
	Generations int
	Tuples      int
	Results     uint64
}

// Stats summarizes a full cleanup run over a store.
type Stats struct {
	Groups   int
	Segments int
	Tuples   int
	Results  uint64
	// Elapsed is the wall-clock time the cleanup computation took. The
	// paper reports cleanup durations (e.g. Figures 7 and 12 text);
	// since cleanup is pure computation over the spilled data, wall time
	// is the faithful measure here.
	Elapsed time.Duration
	// Workers is the parallelism the run actually used.
	Workers int
	// CriticalPath is the busy wall-clock time of the slowest worker —
	// the lower bound on Elapsed that no extra parallelism can beat.
	// Equal to Elapsed for a serial run.
	CriticalPath time.Duration
}

// Options configures a cleanup run (see RunWith).
type Options struct {
	// Parallelism bounds the worker pool merging partition groups
	// concurrently. Zero or negative means runtime.GOMAXPROCS(0).
	// Groups are independent (disjoint key spaces), so the merged
	// result *set* is identical at any parallelism; only the emission
	// order may differ.
	Parallelism int
	// Tracer, when non-nil, records one cleanup_worker span per worker
	// under Node.
	Tracer *obs.Tracer
	// Registry, when non-nil, receives cleanup worker metrics
	// (distq_engine_cleanup_* series).
	Registry *obs.Registry
	// Node names the engine in spans and, indirectly, metric scrapes.
	Node string
	// Now supplies virtual timestamps for worker spans; nil uses the
	// virtual epoch (spans still carry wall times).
	Now func() vclock.Time
}

// Sink receives the missed results of one cleanup worker. RunWith gives
// every worker a Sink of its own, driven only from that worker's
// goroutine, so a Sink needs no locking: Emit gets each result under the
// join.EmitFunc ownership contract (Seqs is scratch; Clone to retain),
// and EndGroup runs after every partition group the worker finishes —
// where a buffering sink ships what it holds.
type Sink interface {
	Emit(tuple.Result)
	EndGroup()
}

// Discard returns a Sink that drops every result: a run that enumerates
// each missed result (the materializing cost model) without consuming it.
func Discard() Sink { return discard{} }

type discard struct{}

func (discard) Emit(tuple.Result) {}
func (discard) EndGroup()         {}

// tables is a per-input hash index over the join key.
type tables []map[uint64][]tuple.Tuple

func newTables(inputs int) tables {
	ts := make(tables, inputs)
	for i := range ts {
		ts[i] = make(map[uint64][]tuple.Tuple)
	}
	return ts
}

func (ts tables) add(t tuple.Tuple) { ts[t.Stream][t.Key] = append(ts[t.Stream][t.Key], t) }

// Group merges the generations of one partition group (disk segments in
// ascending generation order, optionally followed by the final resident
// generation, which the caller appends) and produces the missed results.
// When emit is nil the results are only counted, using the closed form
// missed(t) = prod(old+cur) - prod(cur) over the partner inputs.
//
// A positive window restricts results to combinations whose member
// timestamps span at most window (the windowed join's semantics); the
// closed form does not apply then, so windowed cleanup always enumerates.
func Group(inputs int, gens []*join.GroupSnapshot, window time.Duration, emit join.EmitFunc) (GroupResult, error) {
	var res GroupResult
	if len(gens) == 0 {
		return res, nil
	}
	res.ID = gens[0].ID
	res.Generations = len(gens)
	for i, g := range gens {
		if len(g.Tuples) != inputs {
			return res, fmt.Errorf("cleanup: generation %d of group %d has %d inputs, want %d", g.Gen, g.ID, len(g.Tuples), inputs)
		}
		if g.ID != res.ID {
			return res, fmt.Errorf("cleanup: mixed groups %d and %d", res.ID, g.ID)
		}
		if i > 0 && g.Gen <= gens[i-1].Gen {
			return res, fmt.Errorf("cleanup: generations out of order for group %d: %d after %d", g.ID, g.Gen, gens[i-1].Gen)
		}
	}

	old := newTables(inputs)
	e := &enumerator{inputs: inputs, window: window, emit: emit, seqs: make([]uint64, inputs)}
	for _, g := range gens {
		cur := newTables(inputs)
		for s := 0; s < inputs; s++ {
			for i := range g.Tuples[s] {
				t := g.Tuples[s][i]
				res.Tuples++
				res.Results += e.missed(old, cur, &t)
				cur.add(t)
			}
		}
		// Fold the finished generation into old.
		for s := 0; s < inputs; s++ {
			for k, l := range cur[s] {
				old[s][k] = append(old[s][k], l...)
			}
		}
	}
	return res, nil
}

// enumerator produces the missed matches of one tuple.
type enumerator struct {
	inputs int
	window time.Duration
	emit   join.EmitFunc
	seqs   []uint64
	olds   []([]tuple.Tuple)
	curs   []([]tuple.Tuple)
	stream int
	key    uint64
	ts     vclock.Time
	count  uint64
}

// missed returns the number of cross-generation matches completed by t,
// emitting them when materialization is on.
func (e *enumerator) missed(old, cur tables, t *tuple.Tuple) uint64 {
	if e.emit == nil && e.window == 0 {
		all, sameGen := uint64(1), uint64(1)
		for j := 0; j < e.inputs; j++ {
			if j == int(t.Stream) {
				continue
			}
			no := uint64(len(old[j][t.Key]))
			nc := uint64(len(cur[j][t.Key]))
			all *= no + nc
			sameGen *= nc
			if all == 0 {
				return 0
			}
		}
		return all - sameGen
	}
	if cap(e.olds) < e.inputs {
		e.olds = make([][]tuple.Tuple, e.inputs)
		e.curs = make([][]tuple.Tuple, e.inputs)
	}
	e.olds = e.olds[:e.inputs]
	e.curs = e.curs[:e.inputs]
	for j := 0; j < e.inputs; j++ {
		if j == int(t.Stream) {
			continue
		}
		e.olds[j] = old[j][t.Key]
		e.curs[j] = cur[j][t.Key]
		if len(e.olds[j])+len(e.curs[j]) == 0 {
			return 0
		}
	}
	e.stream = int(t.Stream)
	e.key = t.Key
	e.ts = t.Ts
	e.seqs[t.Stream] = t.Seq
	e.count = 0
	e.walk(0, false, t.Ts, t.Ts)
	return e.count
}

// walk binds one partner per input, tracking whether any bound partner is
// from an older generation and the combination's timestamp span; only
// combinations with anyOld (and, when windowed, span <= window) are
// emitted.
func (e *enumerator) walk(input int, anyOld bool, minTs, maxTs vclock.Time) {
	if input == e.inputs {
		if !anyOld {
			return
		}
		if e.window > 0 && maxTs.Sub(minTs) > e.window {
			return
		}
		if e.emit != nil {
			// The EmitFunc contract lets us hand out the scratch seqs
			// buffer directly; retaining consumers must Clone.
			e.emit(tuple.Result{Key: e.key, Seqs: e.seqs})
		}
		e.count++
		return
	}
	if input == e.stream {
		e.walk(input+1, anyOld, minTs, maxTs)
		return
	}
	bind := func(u *tuple.Tuple, old bool) {
		lo, hi := minTs, maxTs
		if u.Ts < lo {
			lo = u.Ts
		}
		if u.Ts > hi {
			hi = u.Ts
		}
		if e.window > 0 && hi.Sub(lo) > e.window {
			return // prune: span already exceeded
		}
		e.seqs[input] = u.Seq
		e.walk(input+1, anyOld || old, lo, hi)
	}
	for i := range e.olds[input] {
		bind(&e.olds[input][i], true)
	}
	for i := range e.curs[input] {
		bind(&e.curs[input][i], false)
	}
}

// Run performs the cleanup for every group with segments in store,
// merging each with its resident generation from op (if any). It is the
// per-engine cleanup of the paper's disk phase; op may be nil when the
// engine holds no resident state (e.g. everything was spilled). window
// carries the join's sliding window (0 = unbounded). sinks builds one
// Sink per worker, called on the caller's goroutine before the workers
// start; nil counts the missed results without materializing them. Run uses default Options (Parallelism = GOMAXPROCS); RunWith
// takes explicit ones.
func Run(inputs int, store spill.Store, op *join.Operator, window time.Duration, sinks func() Sink) (Stats, error) {
	return RunWith(inputs, store, op, window, sinks, Options{})
}

// cleanupGroup merges one group — its disk segments plus the resident
// generation from op (if any) — into sink (nil counts only), ending the
// group on the sink whether or not the merge succeeded.
func cleanupGroup(inputs int, store spill.Store, op *join.Operator, id partition.ID, window time.Duration, sink Sink) (GroupResult, int, error) {
	var emit join.EmitFunc
	if sink != nil {
		emit = sink.Emit
		defer sink.EndGroup()
	}
	segs, err := store.Read(id)
	if err != nil {
		return GroupResult{}, 0, fmt.Errorf("cleanup: read group %d: %w", id, err)
	}
	nsegs := len(segs)
	if op != nil {
		if resident := op.ResidentSnapshot(id); resident != nil && resident.TupleCount() > 0 {
			segs = append(segs, resident)
		}
	}
	res, err := Group(inputs, segs, window, emit)
	return res, nsegs, err
}

// newSink builds one worker's Sink (nil when counting only).
func newSink(sinks func() Sink) Sink {
	if sinks == nil {
		return nil
	}
	return sinks()
}

// RunWith is Run with explicit Options. Partition groups are merged by a
// bounded worker pool: each group is claimed by exactly one worker, so
// every missed result is produced exactly once, and the result *set* is
// independent of the parallelism — only the emission order varies. Each
// worker emits into its own Sink (see Sink), so workers share no lock on
// the result path, and the span / metric instrumentation is recorded per
// worker.
//
// On failure every group is still attempted, and the returned error is
// deterministically that of the lowest-numbered failing group (matching
// what a serial ascending-order run reports first); the stats then cover
// the groups that did succeed.
func RunWith(inputs int, store spill.Store, op *join.Operator, window time.Duration, sinks func() Sink, opts Options) (Stats, error) {
	start := vclock.WallNow()
	ids := store.Groups()
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(ids) {
		workers = len(ids)
	}
	if workers < 1 {
		workers = 1
	}
	now := opts.Now
	if now == nil {
		now = func() vclock.Time { return 0 }
	}
	stats := Stats{Workers: workers}
	if opts.Registry != nil {
		opts.Registry.Gauge("distq_engine_cleanup_workers").Set(float64(workers))
	}

	if workers == 1 {
		// Serial fast path: errors abort the scan like the pre-pool
		// implementation.
		span := opts.Tracer.Start(obs.SpanCleanupWorker, opts.Node, now())
		span.SetAttr("worker", "0")
		sink := newSink(sinks)
		err := func() error {
			for _, id := range ids {
				res, nsegs, err := cleanupGroup(inputs, store, op, id, window, sink)
				stats.Segments += nsegs
				if err != nil {
					return err
				}
				stats.Groups++
				stats.Tuples += res.Tuples
				stats.Results += res.Results
			}
			return nil
		}()
		finishWorker(span, opts.Registry, "0", stats.Groups, stats.Results, now(), err)
		stats.Elapsed = vclock.WallSince(start)
		stats.CriticalPath = stats.Elapsed
		return stats, err
	}

	work := make(chan partition.ID, len(ids))
	for _, id := range ids {
		work <- id
	}
	close(work)

	type groupErr struct {
		id  partition.ID
		err error
	}
	var (
		mu       sync.Mutex
		failures []groupErr
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		sink := newSink(sinks)
		go func(w int) {
			defer wg.Done()
			label := strconv.Itoa(w)
			span := opts.Tracer.Start(obs.SpanCleanupWorker, opts.Node, now())
			span.SetAttr("worker", label)
			busy := vclock.WallNow()
			var (
				local    Stats
				localErr error
			)
			for id := range work {
				groupStart := vclock.WallNow()
				res, nsegs, err := cleanupGroup(inputs, store, op, id, window, sink)
				local.Segments += nsegs
				if opts.Registry != nil {
					opts.Registry.Histogram("distq_engine_cleanup_group_seconds", obs.LatencyBuckets).Observe(vclock.WallSince(groupStart).Seconds())
				}
				if err != nil {
					if localErr == nil {
						localErr = err
					}
					mu.Lock()
					failures = append(failures, groupErr{id: id, err: err})
					mu.Unlock()
					continue
				}
				local.Groups++
				local.Tuples += res.Tuples
				local.Results += res.Results
			}
			elapsed := vclock.WallSince(busy)
			finishWorker(span, opts.Registry, label, local.Groups, local.Results, now(), localErr)
			mu.Lock()
			stats.Groups += local.Groups
			stats.Segments += local.Segments
			stats.Tuples += local.Tuples
			stats.Results += local.Results
			if elapsed > stats.CriticalPath {
				stats.CriticalPath = elapsed
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	stats.Elapsed = vclock.WallSince(start)
	var err error
	if len(failures) > 0 {
		sort.Slice(failures, func(i, j int) bool { return failures[i].id < failures[j].id })
		err = failures[0].err
	}
	return stats, err
}

// finishWorker stamps a worker's span and counters with its totals.
func finishWorker(span *obs.Span, reg *obs.Registry, worker string, groups int, results uint64, vt vclock.Time, err error) {
	span.SetAttr("groups", strconv.Itoa(groups))
	span.SetAttr("results", strconv.FormatUint(results, 10))
	if reg != nil {
		reg.Counter("distq_engine_cleanup_groups_total", obs.L("worker", worker)).Add(float64(groups))
		reg.Counter("distq_engine_cleanup_results_total").Add(float64(results))
	}
	if err != nil {
		span.Abort(vt, err.Error())
		return
	}
	span.End(vt)
}

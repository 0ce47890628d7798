package cleanup

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/spill"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// buildSpilledRun produces a store with at least minGroups multi-
// generation spilled groups plus an operator holding a final resident
// generation, the shape the parallel worker pool is exercised against.
func buildSpilledRun(t *testing.T, inputs, minGroups int) (*join.Operator, spill.Store) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	var history []tuple.Tuple
	for i := 0; i < 1200; i++ {
		history = append(history, mkTuple(uint8(rng.Intn(inputs)), uint64(rng.Intn(32)), uint64(i)))
	}
	spillAt := map[int]bool{200: true, 500: true, 800: true, 1100: true}
	_, op, store := runWithSpills(t, inputs, 16, history, spillAt)
	if got := len(store.Groups()); got < minGroups {
		t.Fatalf("setup produced %d spilled groups, need >= %d", got, minGroups)
	}
	return op, store
}

func collectResults(t *testing.T, inputs int, op *join.Operator, store spill.Store, opts Options) (*tuple.ResultSet, Stats) {
	t.Helper()
	set := tuple.NewResultSet()
	stats, err := RunWith(inputs, store, op, 0, shared(func(r tuple.Result) { set.Add(r) }), opts)
	if err != nil {
		t.Fatal(err)
	}
	if set.Duplicates() != 0 {
		t.Fatalf("cleanup emitted %d duplicate results at parallelism %d", set.Duplicates(), opts.Parallelism)
	}
	return set, stats
}

// TestParallelMatchesSerialResultSet is the baseline-comparison check:
// the cleanup result set must be byte-identical at every parallelism
// (groups are independent, emission order alone may differ), and the
// aggregate stats must agree.
func TestParallelMatchesSerialResultSet(t *testing.T) {
	const inputs = 3
	op, store := buildSpilledRun(t, inputs, 8)
	serial, serialStats := collectResults(t, inputs, op, store, Options{Parallelism: 1})
	if serial.Len() == 0 {
		t.Fatal("setup produced no cleanup results; test has no power")
	}
	for _, par := range []int{2, 4, 8, 0} { // 0 = GOMAXPROCS default
		set, stats := collectResults(t, inputs, op, store, Options{Parallelism: par})
		if d := serial.Diff(set); len(d) != 0 {
			t.Fatalf("parallelism %d missing %d results, e.g. %s", par, len(d), d[0])
		}
		if d := set.Diff(serial); len(d) != 0 {
			t.Fatalf("parallelism %d produced %d extra results, e.g. %s", par, len(d), d[0])
		}
		if stats.Groups != serialStats.Groups || stats.Segments != serialStats.Segments ||
			stats.Tuples != serialStats.Tuples || stats.Results != serialStats.Results {
			t.Fatalf("parallelism %d stats %+v, serial %+v", par, stats, serialStats)
		}
	}
}

// TestRunDefaultsMatchExplicitSerial pins Run (the Options-free entry
// point) to the same result set as an explicitly serial RunWith.
func TestRunDefaultsMatchExplicitSerial(t *testing.T) {
	const inputs = 2
	op, store := buildSpilledRun(t, inputs, 8)
	serial, _ := collectResults(t, inputs, op, store, Options{Parallelism: 1})
	set := tuple.NewResultSet()
	if _, err := Run(inputs, store, op, 0, shared(func(r tuple.Result) { set.Add(r) })); err != nil {
		t.Fatal(err)
	}
	if len(serial.Diff(set)) != 0 || len(set.Diff(serial)) != 0 {
		t.Fatal("Run's default options diverge from serial result set")
	}
}

func TestParallelStatsShape(t *testing.T) {
	const inputs = 2
	op, store := buildSpilledRun(t, inputs, 8)
	_, stats := collectResults(t, inputs, op, store, Options{Parallelism: 4})
	if stats.Workers < 1 || stats.Workers > 4 {
		t.Fatalf("Workers = %d, want 1..4", stats.Workers)
	}
	if stats.CriticalPath <= 0 || stats.Elapsed <= 0 {
		t.Fatalf("non-positive timings: %+v", stats)
	}
	if stats.CriticalPath > stats.Elapsed {
		t.Fatalf("critical path %s exceeds elapsed %s", stats.CriticalPath, stats.Elapsed)
	}
}

// TestParallelDeterministicError: every group is attempted and the
// reported error is that of the lowest-numbered failing group,
// regardless of worker scheduling.
func TestParallelDeterministicError(t *testing.T) {
	store := spill.NewMemStore()
	for _, id := range []uint32{9, 3, 6} {
		// Arity 3 snapshots under an inputs=2 cleanup fail per group.
		snap := &join.GroupSnapshot{
			ID:  partition.ID(id),
			Gen: 0,
			Tuples: [][]tuple.Tuple{
				{mkTuple(0, 1, uint64(id))}, {mkTuple(1, 1, uint64(100+id))}, {mkTuple(2, 1, uint64(200+id))},
			},
		}
		if err := store.Write(snap); err != nil {
			t.Fatal(err)
		}
	}
	for _, par := range []int{1, 3} {
		_, err := RunWith(2, store, nil, 0, nil, Options{Parallelism: par})
		if err == nil {
			t.Fatalf("parallelism %d: arity mismatch not reported", par)
		}
		if !strings.Contains(err.Error(), "group 3") {
			t.Fatalf("parallelism %d: error %q, want the lowest failing group (3)", par, err)
		}
	}
}

func TestParallelObservability(t *testing.T) {
	const inputs = 2
	op, store := buildSpilledRun(t, inputs, 8)
	tracer := obs.NewTracer(0)
	reg := obs.NewRegistry()
	now := func() vclock.Time { return vclock.Time(7) }
	_, stats := collectResults(t, inputs, op, store, Options{
		Parallelism: 3, Tracer: tracer, Registry: reg, Node: "e1", Now: now,
	})
	workers := 0
	groups := 0
	for _, s := range tracer.Spans() {
		if s.Name != obs.SpanCleanupWorker {
			continue
		}
		workers++
		if !s.Complete || s.Node != "e1" || s.Attrs["status"] != obs.StatusOK {
			t.Fatalf("bad worker span: %+v", s)
		}
		var g int
		fmt.Sscanf(s.Attrs["groups"], "%d", &g)
		groups += g
	}
	if workers != stats.Workers {
		t.Fatalf("%d worker spans, stats.Workers %d", workers, stats.Workers)
	}
	if groups != stats.Groups {
		t.Fatalf("worker spans cover %d groups, stats say %d", groups, stats.Groups)
	}
	var sawGroupsTotal, sawResultsTotal, sawWorkersGauge bool
	for _, mv := range reg.Export() {
		switch mv.Name {
		case "distq_engine_cleanup_groups_total":
			sawGroupsTotal = true
		case "distq_engine_cleanup_results_total":
			sawResultsTotal = true
		case "distq_engine_cleanup_workers":
			sawWorkersGauge = true
		}
	}
	if !sawGroupsTotal || !sawResultsTotal || !sawWorkersGauge {
		t.Fatalf("missing cleanup metrics: groups=%v results=%v workers=%v",
			sawGroupsTotal, sawResultsTotal, sawWorkersGauge)
	}
}

// countingSink tallies one worker's results and group ends without
// locking: the race detector fails the test if RunWith ever shares a
// sink between workers.
type countingSink struct {
	results, groups int
}

func (s *countingSink) Emit(tuple.Result) { s.results++ }
func (s *countingSink) EndGroup()         { s.groups++ }

// TestEveryWorkerOwnsItsSink: RunWith builds one sink per worker and
// ends every merged group on the sink of the worker that merged it.
func TestEveryWorkerOwnsItsSink(t *testing.T) {
	const inputs = 3
	op, store := buildSpilledRun(t, inputs, 8)
	for _, par := range []int{1, 3} {
		var sinks []*countingSink
		stats, err := RunWith(inputs, store, op, 0, func() Sink {
			s := &countingSink{}
			sinks = append(sinks, s) // called on this goroutine
			return s
		}, Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if len(sinks) != stats.Workers {
			t.Fatalf("parallelism %d: %d sinks for %d workers", par, len(sinks), stats.Workers)
		}
		var results, groups int
		for _, s := range sinks {
			results += s.results
			groups += s.groups
		}
		if uint64(results) != stats.Results || groups != stats.Groups {
			t.Fatalf("parallelism %d: sinks saw %d results in %d groups, stats %d in %d",
				par, results, groups, stats.Results, stats.Groups)
		}
	}
}

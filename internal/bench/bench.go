// Package bench defines the hot-path micro-benchmark bodies shared by
// the `go test -bench` wrappers (micro_bench_test.go) and the benchmark
// regression gate (cmd/benchgate). Keeping one body per benchmark means
// the gate measures exactly the code the test benchmarks report on.
//
// Measurements use fixed iteration counts rather than the testing
// package's adaptive loop: the join benchmarks grow operator state, so
// their per-op cost is superlinear in the iteration count and two runs
// are only comparable at the same N.
package bench

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/cleanup"
	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/spill"
	"repro/internal/transport"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// Payload is shared by every bench tuple so the harness itself
// allocates nothing per operation. Stored tuples never mutate payloads.
var Payload = make([]byte, 40)

// Tuple builds the i-th deterministic bench tuple (3 streams, 1000
// keys, timestamp = index).
func Tuple(i int) tuple.Tuple {
	return tuple.Tuple{
		Stream:  uint8(i % 3),
		Key:     uint64(i % 1000),
		Seq:     uint64(i),
		Ts:      vclock.Time(i),
		Payload: Payload,
	}
}

// BuildSnapshot makes a realistic ~1000-tuple group snapshot.
func BuildSnapshot() *join.GroupSnapshot {
	op := join.New(3, partition.NewFunc(1), nil)
	for i := 0; i < 1000; i++ {
		if _, err := op.Process(Tuple(i)); err != nil {
			panic(err)
		}
	}
	return op.ResidentSnapshot(0)
}

// CleanupGens builds the three-generation merge input of the cleanup
// merge benchmark: 300 tuples per generation over 30 keys, 3 streams.
func CleanupGens() []*join.GroupSnapshot {
	mkGen := func(gen uint32) *join.GroupSnapshot {
		s := &join.GroupSnapshot{ID: 0, Gen: gen, Tuples: make([][]tuple.Tuple, 3)}
		for i := 0; i < 300; i++ {
			t := Tuple(i)
			t.Key = uint64(i % 30)
			t.Seq = uint64(gen)*1000 + uint64(i)
			s.Tuples[t.Stream] = append(s.Tuples[t.Stream], t)
		}
		return s
	}
	return []*join.GroupSnapshot{mkGen(0), mkGen(1), mkGen(2)}
}

// ingestBatchResults is the result count of one appserver_result_ingest
// batch.
const ingestBatchResults = 64

// ResultIngestCase is the gated appserver_result_ingest case: the
// application server's intake of one ResultData batch of distinct
// results, gating the per-result cost of decoding plus cross-phase
// duplicate detection. newHandler returns the handler of a fresh
// materializing application server; that server lives in the cluster
// harness, which this package may not import (component boundary), so
// the caller supplies it.
func ResultIngestCase(newHandler func() transport.Handler) Case {
	return Case{
		Name:     "appserver_result_ingest",
		DefaultN: 5_000,
		Make: func() func(int) {
			handle := newHandler()
			var payload []byte
			seqs := make([]uint64, 3)
			return func(i int) {
				payload = payload[:0]
				for j := 0; j < ingestBatchResults; j++ {
					n := uint64(i*ingestBatchResults + j)
					seqs[0], seqs[1], seqs[2] = 3*n, 3*n+1, 3*n+2
					r := tuple.Result{Key: n % 1000, Seqs: seqs}
					payload = r.AppendTo(payload)
				}
				handle("e1", proto.ResultData{Node: "e1", Payload: payload, Phase: proto.PhaseRuntime})
			}
		},
	}
}

// Case is one gated micro-benchmark: Make returns a fresh-state
// per-iteration op. DefaultN is the fixed iteration count the gate
// runs (and the count baseline numbers were captured at).
type Case struct {
	Name     string
	DefaultN int
	Make     func() func(i int)
}

// Cases lists the gated micro-benchmarks in stable output order.
func Cases() []Case {
	return []Case{
		{
			Name:     "join_process_count_only",
			DefaultN: 300_000,
			Make: func() func(int) {
				op := join.New(3, partition.NewFunc(120), nil)
				return func(i int) {
					if _, err := op.Process(Tuple(i)); err != nil {
						panic(err)
					}
				}
			},
		},
		{
			// The sharded operator driven serially: gates that shard
			// routing adds no per-tuple allocations over the plain path
			// (the speedup itself is measured by JoinComparison).
			Name:     "join_process_parallel",
			DefaultN: 300_000,
			Make: func() func(int) {
				op := join.NewSharded(3, partition.NewFunc(120), 4, nil)
				return func(i int) {
					if _, err := op.Process(Tuple(i)); err != nil {
						panic(err)
					}
				}
			},
		},
		{
			// The count-only path with the observability layer live:
			// an open trace span and a logger consulted per tuple via
			// the Enabled guard (the hot-path pattern PROTOCOL.md
			// prescribes). Gates that tracing and structured logging
			// add zero allocations to the join data path.
			Name:     "join_process_observed",
			DefaultN: 300_000,
			Make: func() func(int) {
				op := join.New(3, partition.NewFunc(120), nil)
				tracer := obs.NewTracer(0)
				span := tracer.Start(obs.SpanJoinShard, "bench", 0)
				span.SetAttr("shard", "0")
				lg := obs.NewLogger(obs.LoggerConfig{Node: "bench", Kind: "engine"})
				return func(i int) {
					if lg.Enabled(obs.LevelDebug) {
						lg.Debug("tuple_processed", obs.FInt("i", int64(i)))
					}
					if _, err := op.Process(Tuple(i)); err != nil {
						panic(err)
					}
				}
			},
		},
		{
			Name:     "join_process_materializing",
			DefaultN: 300_000,
			Make: func() func(int) {
				var sink uint64
				op := join.New(3, partition.NewFunc(120), func(r tuple.Result) { sink += r.Seqs[0] })
				return func(i int) {
					if _, err := op.Process(Tuple(i % 50_000)); err != nil {
						panic(err)
					}
				}
			},
		},
		{
			Name:     "tuple_decode",
			DefaultN: 1_000_000,
			Make: func() func(int) {
				t := Tuple(1)
				buf := t.AppendTo(nil)
				return func(int) {
					if _, _, err := tuple.Decode(buf); err != nil {
						panic(err)
					}
				}
			},
		},
		{
			Name:     "batch_round_trip",
			DefaultN: 2_000,
			Make: func() func(int) {
				var batch tuple.Batch
				for i := 0; i < 256; i++ {
					batch.Tuples = append(batch.Tuples, Tuple(i))
				}
				return func(int) {
					buf := batch.Encode()
					if _, err := tuple.DecodeBatch(buf); err != nil {
						panic(err)
					}
				}
			},
		},
		{
			Name:     "snapshot_encode",
			DefaultN: 2_000,
			Make: func() func(int) {
				snap := BuildSnapshot()
				return func(int) { join.EncodeSnapshot(snap) }
			},
		},
		{
			Name:     "snapshot_decode",
			DefaultN: 2_000,
			Make: func() func(int) {
				buf := join.EncodeSnapshot(BuildSnapshot())
				return func(int) {
					if _, err := join.DecodeSnapshot(buf); err != nil {
						panic(err)
					}
				}
			},
		},
		{
			Name:     "cleanup_merge",
			DefaultN: 500,
			Make: func() func(int) {
				gens := CleanupGens()
				return func(int) {
					if _, err := cleanup.Group(3, gens, 0, nil); err != nil {
						panic(err)
					}
				}
			},
		},
	}
}

// Metric is one measured benchmark with fractional allocation counts
// (testing.BenchmarkResult rounds allocs/op to an integer, which hides
// the sub-1-alloc hot paths this gate watches).
type Metric struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// Run measures one case over n iterations (DefaultN when n <= 0) on
// fresh state, after a small fresh-state warm-up run to take one-time
// lazy initialization out of the measurement.
func Run(c Case, n int) Metric {
	if n <= 0 {
		n = c.DefaultN
	}
	warm := c.Make()
	for i := 0; i < 16; i++ {
		warm(i)
	}
	op := c.Make()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := vclock.WallNow()
	for i := 0; i < n; i++ {
		op(i)
	}
	elapsed := vclock.WallSince(start)
	runtime.ReadMemStats(&after)
	return Metric{
		Name:        c.Name,
		N:           n,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
	}
}

// CleanupRun is one measured cleanup pass over the comparison store.
type CleanupRun struct {
	Workers        int    `json:"workers"`
	ElapsedNs      int64  `json:"elapsed_ns"`
	CriticalPathNs int64  `json:"critical_path_ns"`
	Groups         int    `json:"groups"`
	Results        uint64 `json:"results"`
}

// cleanupComparisonStore builds a store with 12 three-generation
// groups, the multi-group shape the parallel cleanup is gated on.
func cleanupComparisonStore() (spill.Store, error) {
	store := spill.NewMemStore()
	for g := 0; g < 12; g++ {
		for gen := uint32(0); gen < 3; gen++ {
			s := &join.GroupSnapshot{ID: partition.ID(g), Gen: gen, Tuples: make([][]tuple.Tuple, 3)}
			for i := 0; i < 200; i++ {
				t := Tuple(i)
				t.Key = uint64(g*100 + i%20)
				t.Seq = uint64(g)*100_000 + uint64(gen)*1000 + uint64(i)
				s.Tuples[t.Stream] = append(s.Tuples[t.Stream], t)
			}
			if err := store.Write(s); err != nil {
				return nil, err
			}
		}
	}
	return store, nil
}

// CleanupComparison runs the same multi-group materializing cleanup
// serially and with the default worker pool, reporting both passes.
// The result *sets* are equal by construction (verified in the cleanup
// package's equivalence tests); the gate records wall and critical-path
// time. On a single-CPU machine the parallel pass cannot beat serial,
// so consumers must compare times only when GOMAXPROCS > 1.
func CleanupComparison() (serial, parallel CleanupRun, err error) {
	store, err := cleanupComparisonStore()
	if err != nil {
		return serial, parallel, err
	}
	run := func(parallelism int) (CleanupRun, error) {
		st, err := cleanup.RunWith(3, store, nil, 0, cleanup.Discard, cleanup.Options{Parallelism: parallelism})
		if err != nil {
			return CleanupRun{}, fmt.Errorf("bench: cleanup comparison: %w", err)
		}
		return CleanupRun{
			Workers:        st.Workers,
			ElapsedNs:      st.Elapsed.Nanoseconds(),
			CriticalPathNs: st.CriticalPath.Nanoseconds(),
			Groups:         st.Groups,
			Results:        st.Results,
		}, nil
	}
	if serial, err = run(1); err != nil {
		return serial, parallel, err
	}
	parallel, err = run(0)
	return serial, parallel, err
}

// JoinRun is one measured run-time join pass of JoinComparison.
type JoinRun struct {
	Shards    int    `json:"shards"`
	ElapsedNs int64  `json:"elapsed_ns"`
	Tuples    int    `json:"tuples"`
	Results   uint64 `json:"results"`
}

// joinComparisonTuples is the input size of JoinComparison: large
// enough that per-tuple probe work dominates goroutine startup.
const joinComparisonTuples = 200_000

// JoinComparison drives the identical tuple sequence through a serial
// join operator and through a 4-shard operator with one goroutine per
// shard (tuples pre-bucketed by owning shard, as the engine's dispatch
// does), reporting both passes. The result counts are equal by
// construction — shards partition the group space — and verified here.
// On a single-CPU machine the parallel pass cannot beat serial, so
// consumers must compare times only when GOMAXPROCS > 1.
func JoinComparison() (serial, parallel JoinRun, err error) {
	tuples := make([]tuple.Tuple, joinComparisonTuples)
	for i := range tuples {
		tuples[i] = Tuple(i)
	}

	serialOp := join.New(3, partition.NewFunc(120), nil)
	start := vclock.WallNow()
	for i := range tuples {
		if _, err := serialOp.Process(tuples[i]); err != nil {
			return serial, parallel, err
		}
	}
	serial = JoinRun{
		Shards:    1,
		ElapsedNs: vclock.WallSince(start).Nanoseconds(),
		Tuples:    len(tuples),
		Results:   serialOp.Output(),
	}

	const shards = 4
	parOp := join.NewSharded(3, partition.NewFunc(120), shards, nil)
	buckets := make([][]tuple.Tuple, shards)
	for i := range tuples {
		s := parOp.ShardIndex(tuples[i].Key)
		buckets[s] = append(buckets[s], tuples[i])
	}
	errs := make([]error, shards)
	var wg sync.WaitGroup
	start = vclock.WallNow()
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sh := parOp.Shard(s)
			for i := range buckets[s] {
				if _, err := sh.Process(buckets[s][i]); err != nil {
					errs[s] = err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	parallel = JoinRun{
		Shards:    shards,
		ElapsedNs: vclock.WallSince(start).Nanoseconds(),
		Tuples:    len(tuples),
		Results:   parOp.Output(),
	}
	for _, e := range errs {
		if e != nil {
			return serial, parallel, fmt.Errorf("bench: join comparison: %w", e)
		}
	}
	if parallel.Results != serial.Results {
		return serial, parallel, fmt.Errorf("bench: join comparison: parallel produced %d results, serial %d",
			parallel.Results, serial.Results)
	}
	return serial, parallel, nil
}

// Micro-benchmarks for the system's hot paths, complementing the figure
// benchmarks: per-tuple join cost, codecs, spill store throughput, and
// the cleanup merge.
package repro_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cleanup"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/partition"
	"repro/internal/spill"
	"repro/internal/transport"
	"repro/internal/tuple"
	"repro/internal/vclock"

	"repro/internal/proto"
)

// benchTuple is the shared deterministic tuple factory (internal/bench):
// its payload is one shared slice so the harness itself allocates
// nothing per operation — allocs/op measures the system under test.
func benchTuple(i int) tuple.Tuple { return bench.Tuple(i) }

// benchCase runs one gated benchmark body from internal/bench under the
// testing harness; cmd/benchgate runs the identical body at fixed
// iteration counts, so the two report on exactly the same code.
func benchCase(b *testing.B, name string) {
	b.Helper()
	for _, c := range bench.Cases() {
		if c.Name == name {
			runCase(b, c)
			return
		}
	}
	b.Fatalf("unknown bench case %q", name)
}

func runCase(b *testing.B, c bench.Case) {
	op := c.Make()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}

func BenchmarkJoinProcessCountOnly(b *testing.B)     { benchCase(b, "join_process_count_only") }
func BenchmarkJoinProcessParallel(b *testing.B)      { benchCase(b, "join_process_parallel") }
func BenchmarkJoinProcessObserved(b *testing.B)      { benchCase(b, "join_process_observed") }
func BenchmarkJoinProcessMaterializing(b *testing.B) { benchCase(b, "join_process_materializing") }
func BenchmarkTupleDecode(b *testing.B)              { benchCase(b, "tuple_decode") }
func BenchmarkBatchRoundTrip(b *testing.B)           { benchCase(b, "batch_round_trip") }
func BenchmarkSnapshotEncode(b *testing.B)           { benchCase(b, "snapshot_encode") }
func BenchmarkSnapshotDecode(b *testing.B)           { benchCase(b, "snapshot_decode") }
func BenchmarkCleanupMerge(b *testing.B)             { benchCase(b, "cleanup_merge") }

// BenchmarkAppServerResultIngest runs the gated appserver_result_ingest
// body against the application server, as cmd/benchgate does.
func BenchmarkAppServerResultIngest(b *testing.B) {
	runCase(b, bench.ResultIngestCase(func() transport.Handler {
		return cluster.NewAppServer(vclock.NewManual(), true, func(proto.Phase, tuple.Result) {}).Handle
	}))
}

func BenchmarkTupleEncode(b *testing.B) {
	t := benchTuple(1)
	buf := make([]byte, 0, t.EncodedSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = t.AppendTo(buf[:0])
	}
}

// BenchmarkJoinWindowedInsert drives a windowed join with slightly
// out-of-order timestamps, exercising the sorted-insert path
// (insertOrdered) every arriving tuple takes.
func BenchmarkJoinWindowedInsert(b *testing.B) {
	op := join.NewWindowed(3, partition.NewFunc(120), time.Hour, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := benchTuple(i)
		// Jitter the timestamps so a fraction of inserts land before
		// the tail and pay the binary-insertion cost.
		t.Ts = vclock.Time(i + (i%5-2)*3)
		if _, err := op.Process(t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinWindowedProbe measures the windowed probe path: matches
// are enumerated only over the stored tuples inside the window
// (windowBounds binary searches), with materialized emission.
func BenchmarkJoinWindowedProbe(b *testing.B) {
	var sink uint64
	op := join.NewWindowed(3, partition.NewFunc(120), 5_000*time.Nanosecond,
		func(r tuple.Result) { sink += r.Seqs[0] })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := benchTuple(i)
		t.Key = uint64(i % 100)
		if _, err := op.Process(t); err != nil {
			b.Fatal(err)
		}
	}
	_ = sink
}

// buildSnapshot makes a realistic ~1000-tuple group snapshot.
func buildSnapshot() *join.GroupSnapshot { return bench.BuildSnapshot() }

// BenchmarkCleanupRunMultiGroup measures a full cleanup over 12
// three-generation groups, serial vs the GOMAXPROCS worker pool. The
// result sets are identical (cleanup package equivalence tests); on a
// multi-core machine the parallel variant's wall time drops while the
// critical path stays put.
func BenchmarkCleanupRunMultiGroup(b *testing.B) {
	store := spill.NewMemStore()
	for g := 0; g < 12; g++ {
		for gen := uint32(0); gen < 3; gen++ {
			s := &join.GroupSnapshot{ID: partition.ID(g), Gen: gen, Tuples: make([][]tuple.Tuple, 3)}
			for i := 0; i < 200; i++ {
				t := benchTuple(i)
				t.Key = uint64(g*100 + i%20)
				t.Seq = uint64(g)*100_000 + uint64(gen)*1000 + uint64(i)
				s.Tuples[t.Stream] = append(s.Tuples[t.Stream], t)
			}
			if err := store.Write(s); err != nil {
				b.Fatal(err)
			}
		}
	}
	for name, par := range map[string]int{"serial": 1, "parallel": 0} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cleanup.RunWith(3, store, nil, 0, cleanup.Discard, cleanup.Options{Parallelism: par}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFileStoreWriteRead(b *testing.B) {
	store, err := spill.NewFileStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	snap := buildSnapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.Gen = uint32(i)
		if err := store.Write(snap); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if _, err := store.Read(0); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkPolicySelectVictims(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	groups := make([]core.GroupStats, 500)
	for i := range groups {
		groups[i] = core.GroupStats{
			ID:     partition.ID(i),
			Size:   int64(rng.Intn(100_000)),
			Output: uint64(rng.Intn(1_000_000)),
		}
	}
	policy := core.LessProductivePolicy{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		policy.SelectVictims(groups, 1_000_000)
	}
}

func BenchmarkPartitionMapMove(b *testing.B) {
	m, err := partition.NewMap(500, partition.UniformAssign([]partition.NodeID{"a", "b"}))
	if err != nil {
		b.Fatal(err)
	}
	ids := []partition.ID{1, 3, 5, 7, 9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node := partition.NodeID("a")
		if i%2 == 0 {
			node = "b"
		}
		if _, err := m.Move(ids, node); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInprocTransport(b *testing.B) {
	net := transport.NewInproc()
	defer net.Close()
	done := make(chan struct{}, 1024)
	if _, err := net.Attach("sink", func(partition.NodeID, proto.Message) { done <- struct{}{} }); err != nil {
		b.Fatal(err)
	}
	src, err := net.Attach("src", func(partition.NodeID, proto.Message) {})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 4096)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Send("sink", proto.Data{Payload: payload}); err != nil {
			b.Fatal(err)
		}
		<-done
	}
}

func BenchmarkTCPTransport(b *testing.B) {
	net := transport.NewTCP(map[partition.NodeID]string{
		"src": "127.0.0.1:0", "sink": "127.0.0.1:0",
	})
	defer net.Close()
	done := make(chan struct{}, 1024)
	if _, err := net.Attach("sink", func(partition.NodeID, proto.Message) { done <- struct{}{} }); err != nil {
		b.Fatal(err)
	}
	src, err := net.Attach("src", func(partition.NodeID, proto.Message) {})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 4096)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Send("sink", proto.Data{Payload: payload}); err != nil {
			b.Fatal(err)
		}
		<-done
	}
}

package engine

import (
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/transport"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// collectResults gathers the results of ResultData messages the app peer
// receives until want have arrived, returning them with the per-message
// result counts. The rig's manual clock never fires a Tick, so whatever
// arrives was shipped by the result path itself.
func collectResults(t *testing.T, app *peer, want int) (*tuple.ResultSet, []int) {
	t.Helper()
	set := tuple.NewResultSet()
	var frames []int
	deadline := time.After(5 * time.Second)
	for set.Len() < want {
		select {
		case m := <-app.msgs:
			rd, ok := m.msg.(proto.ResultData)
			if !ok {
				continue
			}
			n := 0
			for buf := rd.Payload; len(buf) > 0; n++ {
				r, used, err := tuple.DecodeResult(buf)
				if err != nil {
					t.Fatal(err)
				}
				if !set.Add(r) {
					t.Fatalf("duplicate result %+v", r)
				}
				buf = buf[used:]
			}
			frames = append(frames, n)
		case <-deadline:
			t.Fatalf("%d of %d results arrived without a stats tick", set.Len(), want)
		}
	}
	return set, frames
}

// TestDataBatchShipsResultsWithoutTick: a Data batch's results reach the
// app server when the batch has been processed — no sr_timer involved —
// on the serial path and through the shard workers.
func TestDataBatchShipsResultsWithoutTick(t *testing.T) {
	for _, par := range []int{1, 2} {
		r := newRig(t, func(c *Config) {
			c.Materialize = true
			c.JoinParallelism = par
		})
		// Four keys over four partitions: both shards produce matches.
		var tuples []tuple.Tuple
		for k := uint64(0); k < 4; k++ {
			tuples = append(tuples, mk(0, k, 10*k+1), mk(1, k, 10*k+2))
		}
		if err := r.gen.ep.Send("m1", dataMsg(t, tuples...)); err != nil {
			t.Fatal(err)
		}
		set, _ := collectResults(t, r.app, 4)
		for k := uint64(0); k < 4; k++ {
			if !set.Contains(tuple.Result{Key: k, Seqs: []uint64{10*k + 1, 10*k + 2}}) {
				t.Fatalf("parallelism %d: result of key %d missing", par, k)
			}
		}
	}
}

// TestOversizedBatchShipsCappedFrames: a batch producing more results
// than resultFlushThreshold ships them as several ResultData messages,
// none above the cap.
func TestOversizedBatchShipsCappedFrames(t *testing.T) {
	for _, par := range []int{1, 2} {
		r := newRig(t, func(c *Config) {
			c.Materialize = true
			c.JoinParallelism = par
		})
		// 100 x 50 tuples of one key: 5000 results from one batch.
		var tuples []tuple.Tuple
		for i := uint64(0); i < 100; i++ {
			tuples = append(tuples, mk(0, 7, i))
		}
		for i := uint64(0); i < 50; i++ {
			tuples = append(tuples, mk(1, 7, 1000+i))
		}
		if err := r.gen.ep.Send("m1", dataMsg(t, tuples...)); err != nil {
			t.Fatal(err)
		}
		_, frames := collectResults(t, r.app, 5000)
		if len(frames) < 2 {
			t.Fatalf("parallelism %d: 5000 results in %d frame(s), want >= 2", par, len(frames))
		}
		for _, n := range frames {
			if n > resultFlushThreshold {
				t.Fatalf("parallelism %d: frame of %d results exceeds the cap %d", par, n, resultFlushThreshold)
			}
		}
	}
}

// TestQuiesceShipsEveryShardResult: a barrier queued behind data (so the
// worker's queue never runs empty in between) still finds every result
// shipped when quiesce returns — the rule Drain's exactness rests on.
func TestQuiesceShipsEveryShardResult(t *testing.T) {
	net := transport.NewInproc()
	t.Cleanup(func() { net.Close() })
	app := newPeer(t, net, "app")
	e := mustNew(t, Config{
		Node: "m1", Coordinator: "gc", AppServer: "app",
		Inputs: 2, Partitions: 4, Materialize: true, JoinParallelism: 2,
		StatsInterval: time.Hour, SpillCheckInterval: time.Hour,
	}, vclock.NewManual())
	// Attach the endpoint without starting the workers, so each worker
	// finds its data and the barrier behind it already queued.
	ep, err := net.Attach("m1", e.Handle)
	if err != nil {
		t.Fatal(err)
	}
	e.ep, e.net = ep, net
	var tuples []tuple.Tuple
	for k := uint64(0); k < 8; k++ {
		tuples = append(tuples, mk(0, k, 10*k+1), mk(1, k, 10*k+2))
	}
	e.pool.dispatch(tuples)
	queued := make([]int, len(e.pool.workers))
	for i, w := range e.pool.workers {
		queued[i] = len(w.work)
	}
	quiesced := make(chan error, 1)
	go func() { quiesced <- e.pool.quiesce() }()
	// Start the workers only once every barrier sits behind the data.
	for i := 0; i < len(queued); {
		if len(e.pool.workers[i].work) > queued[i] {
			i++
			continue
		}
		time.Sleep(time.Millisecond)
	}
	e.pool.start()
	t.Cleanup(e.pool.close)
	select {
	case err := <-quiesced:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("quiesce did not return")
	}
	for i, b := range e.shardResults {
		if b.count != 0 || len(b.payload) != 0 {
			t.Fatalf("shard %d holds %d unsent results after quiesce", i, b.count)
		}
	}
	collectResults(t, app, 8)
}

package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/distq"
	"repro/internal/cluster"
	"repro/internal/proto"
	"repro/internal/transport"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// genTick is the open-loop generator's period: each tick it ingests
// every tuple that has come due, then flushes the split host's partial
// batches.
const genTick = time.Millisecond

// phaseSpec is one cluster lifetime driven through distq: build, feed,
// Drain, Cleanup, close.
type phaseSpec struct {
	opts    distq.Options // Network and OnResult are set by the phase
	keys    []uint64      // tuple i is seq i/Inputs of stream i%Inputs
	payload []byte
	// due gives tuple i's offset from the start of feeding for an
	// open-loop phase; nil feeds a saturated closed loop.
	due    func(i int) time.Duration
	traced bool
}

// phaseResult is what one phase measured.
type phaseResult struct {
	setup        time.Duration
	tuples       int
	failedIngest int
	elapsed      time.Duration // first Ingest → Drain returned
	drain        time.Duration // the Drain call alone: backlog left when feeding ended
	cpu          time.Duration // over elapsed
	peakHeap     uint64
	ingestUs     []float64 // wall time of each Ingest call
	lagMs        []float64 // open loop: how late each tuple was ingested
	latencyMs    []float64 // open loop: due → OnResult, run-time results
	cleanup      time.Duration
	summary      distq.CleanupSummary
	stats        distq.Stats
	duplicates   int
	runtime      uint64 // run-time results delivered (all before Drain returned)
	delivered    uint64 // run-time + cleanup results delivered
	fingerprint  uint64

	// Traced phases only.
	tn     *traceNet
	window [2]int64 // feeding start and Drain return, ns since tn.base
	stages *stageAcc
}

// built is an assembled cluster and the network it owns.
type built struct {
	c     *distq.Cluster
	net   transport.Network
	tn    *traceNet
	setup time.Duration
}

// directory lists every node of a distq cluster on an ephemeral
// loopback port.
func directory(engines []distq.NodeID) map[distq.NodeID]string {
	dir := map[distq.NodeID]string{
		cluster.CoordinatorNode: "127.0.0.1:0",
		cluster.GeneratorNode:   "127.0.0.1:0",
		cluster.AppServerNode:   "127.0.0.1:0",
	}
	for _, e := range engines {
		dir[e] = "127.0.0.1:0"
	}
	return dir
}

// buildCluster assembles a cluster over a fresh TCP network and times
// it up to the point Ingest may be called: set-up time.
func buildCluster(opts distq.Options, col *collector) (*built, error) {
	start := vclock.WallNow()
	inner := distq.NewTCPNetwork(directory(opts.Engines))
	b := &built{net: inner}
	if col != nil && col.traced {
		b.tn = newTraceNet(inner, col.base)
		b.tn.onSend = col.onSend
		col.tn = b.tn
		opts.Network = b.tn
	} else {
		opts.Network = inner
	}
	if col != nil {
		opts.OnResult = col.onResult
	}
	c, err := distq.NewCluster(opts)
	if err != nil {
		inner.Close()
		return nil, err
	}
	b.c = c
	b.setup = vclock.WallSince(start)
	return b, nil
}

func (b *built) close() {
	b.c.Close()
	b.net.Close()
}

// runPhase builds a cluster, feeds spec's tuples, drains, runs the
// cleanup phase and checks nothing in between.
func runPhase(spec phaseSpec) (*phaseResult, error) {
	runtime.GC() // no phase pays for its predecessor's garbage
	inputs := spec.opts.Inputs
	n := len(spec.keys)
	col := &collector{inputs: inputs, due: spec.due, base: vclock.WallNow(), traced: spec.traced}
	if spec.traced {
		col.tupleRec = make([]atomic.Pointer[msgRec], n)
		col.stages = &stageAcc{}
	}
	b, err := buildCluster(spec.opts, col)
	if err != nil {
		return nil, err
	}
	defer b.close()
	c := b.c
	res := &phaseResult{setup: b.setup, tuples: n, tn: b.tn, stages: col.stages}
	res.ingestUs = make([]float64, n)
	if spec.due != nil {
		res.lagMs = make([]float64, n)
	}

	heap := startHeapSampler()
	cpu0 := cpuTime()
	start := vclock.WallNow()
	col.t0.Store(int64(start.Sub(col.base)))
	for i := 0; i < n; {
		elapsed := vclock.WallSince(start)
		for ; i < n && (spec.due == nil || spec.due(i) <= elapsed); i++ {
			t := vclock.WallNow()
			if spec.due != nil {
				res.lagMs[i] = ms(t.Sub(start) - spec.due(i))
			}
			if err := c.Ingest(i%inputs, spec.keys[i], spec.payload); err != nil {
				res.failedIngest++
			}
			res.ingestUs[i] = float64(vclock.WallSince(t)) / 1e3
		}
		if spec.due == nil {
			break
		}
		if err := c.Flush(); err != nil {
			heap.finish()
			return nil, fmt.Errorf("flush: %w", err)
		}
		if i < n {
			if wait := spec.due(i) - vclock.WallSince(start); wait > 0 {
				vclock.WallSleep(min(wait, genTick))
			}
		}
	}
	drainStart := vclock.WallNow()
	if err := c.Drain(); err != nil {
		heap.finish()
		return nil, fmt.Errorf("drain: %w", err)
	}
	end := vclock.WallNow()
	res.cpu = cpuTime() - cpu0
	res.elapsed = end.Sub(start)
	res.drain = end.Sub(drainStart)
	res.window = [2]int64{int64(start.Sub(col.base)), int64(end.Sub(col.base))}
	res.stats = c.Snapshot()
	res.peakHeap = heap.finish()

	cleanupStart := vclock.WallNow()
	res.summary, err = c.Cleanup()
	if err != nil {
		return nil, fmt.Errorf("cleanup: %w", err)
	}
	res.cleanup = vclock.WallSince(cleanupStart)
	res.duplicates = c.Snapshot().Duplicates

	col.mu.Lock()
	res.runtime = col.runtime
	res.delivered = col.runtime + col.cleanup
	res.fingerprint = col.fp
	res.latencyMs = col.latency
	col.mu.Unlock()
	return res, nil
}

// collector is the application's side of the run: OnResult counts,
// fingerprints and times every delivered result.
type collector struct {
	inputs int
	due    func(int) time.Duration
	base   time.Time
	t0     atomic.Int64 // start of feeding, ns since base
	traced bool

	// Traced only: the Data message that carried each tuple, and the
	// network whose app-server handler is running OnResult.
	tupleRec []atomic.Pointer[msgRec]
	tn       *traceNet
	stages   *stageAcc

	mu      sync.Mutex
	runtime uint64
	cleanup uint64
	fp      uint64
	latency []float64
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (c *collector) onResult(ph distq.Phase, r distq.Result) {
	now := int64(vclock.WallSince(c.base))
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fp += fingerprint(r)
	if ph != distq.PhaseRuntime {
		c.cleanup++
		return
	}
	c.runtime++
	if c.due == nil {
		return
	}
	newest := 0
	for s, seq := range r.Seqs {
		if i := int(seq)*c.inputs + s; i > newest {
			newest = i
		}
	}
	due := c.t0.Load() + int64(c.due(newest))
	c.latency = append(c.latency, float64(now-due)/1e6)
	if c.stages != nil {
		var data *msgRec
		if newest < len(c.tupleRec) {
			data = c.tupleRec[newest].Load()
		}
		c.stages.add(due, now, data, c.tn.handling(cluster.AppServerNode))
	}
}

// onSend notes which Data message carries each tuple.
func (c *collector) onSend(rec *msgRec, msg proto.Message) {
	d, ok := msg.(proto.Data)
	if !ok {
		return
	}
	b, err := tuple.DecodeBatch(d.Payload)
	if err != nil {
		return
	}
	for _, t := range b.Tuples {
		if i := int(t.Seq)*c.inputs + int(t.Stream); i < len(c.tupleRec) {
			c.tupleRec[i].Store(rec)
		}
	}
}

// stageNames are the consecutive stages of one result's latency, from
// the moment its newest tuple was due to the OnResult callback.
var stageNames = [...]string{
	"split_wait",     // due → split host sends the Data batch
	"data_send",      // Data Send call
	"data_transit",   // Send returned → engine handler starts
	"report_wait",    // engine handler starts → ResultData send starts
	"result_send",    // ResultData Send call
	"result_transit", // Send returned → app-server handler starts
	"app",            // app-server handler → OnResult
}

// stageAcc splits traced result latencies into stageNames.
type stageAcc struct {
	results      int
	unattributed int
	latencyNs    float64
	sumsNs       [len(stageNames)]float64
	reportWaitMs []float64
}

func (a *stageAcc) add(due, now int64, data, rd *msgRec) {
	a.results++
	a.latencyNs += float64(now - due)
	if data == nil || rd == nil {
		a.unattributed++
		return
	}
	dS, dE, dH := data.sendStart.Load(), data.sendEnd.Load(), data.handleStart.Load()
	rS, rE, rH := rd.sendStart.Load(), rd.sendEnd.Load(), rd.handleStart.Load()
	// A handler may start before its Send returned; the overlap is
	// send time, not transit.
	if dE == 0 || dE > dH {
		dE = dH
	}
	if rE == 0 || rE > rH {
		rE = rH
	}
	bounds := [len(stageNames) + 1]int64{due, dS, dE, dH, rS, rE, rH, now}
	for k := range stageNames {
		if d := bounds[k+1] - bounds[k]; d > 0 {
			a.sumsNs[k] += float64(d)
		}
	}
	a.reportWaitMs = append(a.reportWaitMs, float64(rS-dH)/1e6)
}

// sortedCopy returns xs sorted ascending, leaving xs as it was.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

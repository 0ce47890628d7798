package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/transport"
	"repro/internal/tuple"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// replicated_failover: the same transport and engine layers used
// differently. Per-group replication streams state deltas beside the
// tuples, and an engine crash exercises follower promotion. Built with
// cluster.New, the only entry point that supports replication; its own
// feeder generates the workload from the seed. Script: feed, Drain,
// await ReplicationSettled, Crash("e2"), await the promotion, feed
// again, Quiesce, Drain, Finish.
const (
	failoverScale  = 600
	failoverPhase  = 10 * time.Minute // virtual, each of the two feeds
	failoverSetups = 4
	failoverAwait  = 30 * time.Second // wall-clock guard on each await
	failoverVictim = partition.NodeID("e2")
)

func failoverConfig(seed int64, net transport.Network) cluster.Config {
	return cluster.Config{
		Engines: engines,
		Workload: workload.Config{
			Streams:      inputs,
			Partitions:   partitions,
			Classes:      []workload.Class{{Fraction: 1, JoinRate: 1, TupleRange: 30000}},
			InterArrival: 30 * time.Millisecond,
			PayloadBytes: payloadBytes,
			Seed:         seed,
		},
		Strategy:         core.NoAdapt{},
		Materialize:      true,
		Replicate:        true,
		Scale:            failoverScale,
		Duration:         2 * failoverPhase,
		StatsInterval:    5 * time.Second,
		LBInterval:       5 * time.Second,
		HeartbeatTimeout: 60 * time.Second,
		RelocTimeout:     30 * time.Second,
		Network:          net,
	}
}

// startFailoverCluster builds and starts a cluster over a fresh TCP
// network (traced if asked, spans timed from base), timing it to the
// point it can be fed.
func startFailoverCluster(seed int64, traced bool, base time.Time) (*cluster.Cluster, transport.Network, *traceNet, time.Duration, error) {
	start := vclock.WallNow()
	inner := transport.NewTCP(directory(engines))
	var net transport.Network = inner
	var tn *traceNet
	if traced {
		tn = newTraceNet(inner, base)
		net = tn
	}
	c, err := cluster.New(failoverConfig(seed, net))
	if err != nil {
		inner.Close()
		return nil, nil, nil, 0, err
	}
	if err := c.Start(); err != nil {
		c.Finish()
		inner.Close()
		return nil, nil, nil, 0, err
	}
	return c, inner, tn, vclock.WallSince(start), nil
}

func runFailover(cfg runCfg) (*outcome, error) {
	var setups []time.Duration
	for i := 0; i < failoverSetups; i++ {
		runtime.GC()
		c, net, _, d, err := startFailoverCluster(cfg.seed, false, vclock.WallNow())
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
		c.Finish()
		net.Close()
	}

	runtime.GC()
	base := vclock.WallNow()
	c, net, tn, setup, err := startFailoverCluster(cfg.seed, cfg.traced, base)
	if err != nil {
		return nil, err
	}
	defer net.Close()
	setups = append(setups, setup)

	heap := startHeapSampler()
	cpu0 := cpuTime()
	start := vclock.WallNow()
	fail := func(err error) (*outcome, error) {
		heap.finish()
		c.Finish()
		return nil, err
	}
	if err := c.Feed(failoverPhase); err != nil {
		return fail(fmt.Errorf("feed: %w", err))
	}
	if err := c.Drain(); err != nil {
		return fail(fmt.Errorf("drain: %w", err))
	}
	settleStart := vclock.WallNow()
	if !c.Await(failoverAwait, c.ReplicationSettled) {
		return fail(fmt.Errorf("replication never settled (lag %d bytes)", c.ReplicationLagTotal()))
	}
	settle := vclock.WallSince(settleStart)
	crash := vclock.WallNow()
	if err := c.Crash(failoverVictim); err != nil {
		return fail(err)
	}
	if !c.Await(failoverAwait, func() bool { return c.Promotions() >= 1 && c.PartitionsPaused() == 0 }) {
		return fail(fmt.Errorf("promotion never completed (promotions %d, paused %d)", c.Promotions(), c.PartitionsPaused()))
	}
	failover := vclock.WallSince(crash)
	if err := c.Feed(failoverPhase); err != nil {
		return fail(fmt.Errorf("feed after failover: %w", err))
	}
	if err := c.Quiesce(); err != nil {
		return fail(fmt.Errorf("quiesce: %w", err))
	}
	if err := c.Drain(); err != nil {
		return fail(fmt.Errorf("final drain: %w", err))
	}
	end := vclock.WallNow()
	cpu := cpuTime() - cpu0
	peak := heap.finish()
	res, err := c.Finish()
	if err != nil {
		return nil, err
	}

	ex, oset := failoverOracle(cfg.seed, res.Generated)
	matched := uint64(res.RuntimeSet.Overlap(oset) + res.CleanupSet.Overlap(oset))
	unique := uint64(res.RuntimeSet.Len() + res.CleanupSet.Len())
	e := exactness{
		Expected:         ex.results,
		Delivered:        unique + uint64(res.Duplicates),
		Missed:           int64(ex.results - matched),
		Extra:            int64(unique - matched),
		Duplicates:       int64(res.Duplicates),
		FingerprintMatch: matched == ex.results && unique == matched,
	}
	e.Failed = e.Missed + e.Extra + e.Duplicates
	e.ErrorRatio = float64(e.Failed) / float64(max(ex.results, 1))

	tuples := int(res.Generated)
	o := &outcome{exact: e, tuples: tuples, expects: []expectation{ex}, sustained: true}
	o.e2e = []metricVal{
		{Name: "cpu_ms_per_ktuple", Value: ms(cpu) / (float64(tuples) / 1000), Unit: "ms/ktuple"},
		{Name: "peak_heap_mb", Value: float64(peak) / (1 << 20), Unit: "MB"},
		{Name: "runtime_results", Value: float64(res.RuntimeOutput), Unit: "results"},
		{Name: "failover_s", Value: failover.Seconds(), Unit: "s"},
		{Name: "setup_s", Value: median(durations(setups)), Unit: "s", N: len(setups)},
		{Name: "error_ratio", Value: e.ErrorRatio, Unit: "share", RecordOnly: true},
	}
	if n := len(c.Errors()); n > 0 {
		o.notes = append(o.notes, fmt.Sprintf("coordinator reported %d errors; first: %v", n, c.Errors()[0]))
	}
	if tn != nil {
		o.phases = []*phaseResult{{tn: tn, window: [2]int64{int64(start.Sub(base)), int64(end.Sub(base))}, tuples: tuples}}
		o.layers = replicaLayers(tn, o.phases[0].window, res.Metrics, tuples, settle)
	}
	return o, nil
}

// failoverOracle regenerates the feeder's tuples (each stream emits
// generated/3, seq k at virtual k×InterArrival) and joins them
// serially, keeping the result set for an exact comparison.
func failoverOracle(seed int64, generated uint64) (expectation, *tuple.ResultSet) {
	wl := failoverConfig(seed, nil).Workload
	gen, err := workload.New(wl)
	if err != nil {
		panic(err) // the configuration above is valid
	}
	set := tuple.NewResultSet()
	var ex expectation
	op := join.New(inputs, partition.NewFunc(partitions), func(r tuple.Result) {
		set.Add(r)
		ex.fingerprint += fingerprint(r)
	})
	perStream := int(generated) / inputs
	start := vclock.WallNow()
	for k := 0; k < perStream; k++ {
		ts := vclock.Time(0).Add(time.Duration(k) * wl.InterArrival)
		for s := 0; s < inputs; s++ {
			if _, err := op.Process(gen.Next(s, ts)); err != nil {
				panic(err)
			}
		}
	}
	ex.elapsed = vclock.WallSince(start)
	ex.results = op.Output()
	ex.tuples = perStream * inputs
	return ex, set
}

// replicaLayers reports the replication layer of a traced failover
// run. Engine and coordinator transport metrics live in the cluster's
// own registries (it instruments them), the split host's and app
// server's in the trace network's.
func replicaLayers(tn *traceNet, window [2]int64, clusterMetrics []obs.MetricValue, tuples int, settle time.Duration) []metricVal {
	a := newSpanAgg()
	a.addPhase(tn, window)
	var deltaBytes float64
	for _, mv := range clusterMetrics {
		if mv.Labels["type"] == "StateDelta" && mv.Name == "distq_engine_transport_send_bytes_total" {
			deltaBytes += mv.Value
		}
	}
	a.sentBytes += sumCounter(clusterMetrics, "_transport_send_bytes_total")
	a.creditBlocked += sumCounter(clusterMetrics, "_transport_credit_blocked_total")
	return append(a.transportMetrics(tuples),
		metricVal{Name: "replica.delta_bytes_per_tuple", Value: share(deltaBytes, float64(tuples)), Unit: "B/tuple"},
		metricVal{Name: "replica.ack_transit_us_p50", Value: median(a.transitUs["DeltaAck"]), Unit: "us", N: len(a.transitUs["DeltaAck"])},
		metricVal{Name: "replica.settle_ms", Value: ms(settle), Unit: "ms"},
		metricVal{Name: "replica.promote_ms", Value: mean(a.promoteUs) / 1e3, Unit: "ms", N: len(a.promoteUs)},
	)
}

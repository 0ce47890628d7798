package main

import (
	"math"
	"strconv"
	"strings"

	"repro/distq"
	"repro/internal/obs"
	"repro/internal/proto"
)

// spanAgg folds the spans and message records of traced phases into
// per-layer totals.
type spanAgg struct {
	windowNs      int64
	sendUs        map[string][]float64 // by message type
	transitUs     map[string][]float64 // by message type
	engineBusyNs  map[distq.NodeID]int64
	engineDataUs  []float64
	appBusyNs     int64
	appResultUs   []float64
	spillHandleNs int64
	promoteUs     []float64
	relocationMs  []float64
	pausedNs      int64
	sentBytes     float64
	creditBlocked float64
	unpaired      int64
	mismatched    int64
}

func newSpanAgg() *spanAgg {
	return &spanAgg{
		sendUs:       make(map[string][]float64),
		transitUs:    make(map[string][]float64),
		engineBusyNs: make(map[distq.NodeID]int64),
	}
}

// addPhase folds one traced phase. Busy shares count handler time that
// started while the phase was feeding or draining (window).
func (a *spanAgg) addPhase(tn *traceNet, window [2]int64) {
	recs, spans := tn.snapshot()
	a.windowNs += window[1] - window[0]
	inWindow := func(t int64) bool { return t >= window[0] && t < window[1] }
	pauses := make(map[uint64]int64)
	remaps := make(map[uint64]int64)
	for _, s := range spans {
		d := s.end - s.start
		if s.kind == spanSend {
			a.sendUs[s.typ] = append(a.sendUs[s.typ], float64(d)/1e3)
			continue
		}
		switch roleOf(s.node) {
		case "engine":
			if inWindow(s.start) {
				a.engineBusyNs[s.node] += d
			}
			switch {
			case s.typ == "Data":
				a.engineDataUs = append(a.engineDataUs, float64(d)/1e3)
			case s.typ == "Tick" && s.tick == proto.TickSpill, s.typ == "ForceSpill":
				a.spillHandleNs += d
			case s.typ == "Promote":
				a.promoteUs = append(a.promoteUs, float64(d)/1e3)
			}
		case "app":
			if inWindow(s.start) {
				a.appBusyNs += d
			}
			if s.typ == "ResultData" {
				a.appResultUs = append(a.appResultUs, float64(d)/1e3)
			}
		case "gen":
			if s.rec == nil || s.rec.epoch == 0 {
				continue
			}
			switch s.typ {
			case "Pause":
				pauses[s.rec.epoch] = s.start
			case "Remap":
				remaps[s.rec.epoch] = s.start
			}
		}
	}
	for epoch, p := range pauses {
		if r, ok := remaps[epoch]; ok && r > p {
			a.pausedNs += r - p
		}
	}

	type span2 struct{ first, last int64 }
	relocs := make(map[uint64]*span2)
	for _, r := range recs {
		if r.failed.Load() {
			continue
		}
		start, end, h := r.sendStart.Load(), r.sendEnd.Load(), r.handleStart.Load()
		if r.epoch != 0 {
			sp := relocs[r.epoch]
			if sp == nil {
				sp = &span2{first: start, last: end}
				relocs[r.epoch] = sp
			}
			sp.first = min(sp.first, start)
			sp.last = max(sp.last, end, r.handleEnd.Load())
		}
		if h == 0 {
			continue
		}
		if end == 0 || end > h {
			end = h
		}
		a.transitUs[r.typ] = append(a.transitUs[r.typ], float64(h-end)/1e3)
	}
	for _, sp := range relocs {
		a.relocationMs = append(a.relocationMs, float64(sp.last-sp.first)/1e6)
	}

	a.sentBytes += sumCounter(tn.reg.Export(), "_transport_send_bytes_total")
	a.creditBlocked += sumCounter(tn.reg.Export(), "_transport_credit_blocked_total")
	a.unpaired += tn.unpaired.Load()
	a.mismatched += tn.mismatched.Load()
}

// transportMetrics reports the transport layer (and the engines'
// handler busy share) over tuples input tuples.
func (a *spanAgg) transportMetrics(tuples int) []metricVal {
	var out []metricVal
	for _, typ := range []string{"Data", "ResultData", "StateDelta"} {
		out = append(out, metricVal{Name: "transport.send_us_mean." + typ, Value: mean(a.sendUs[typ]), Unit: "us", N: len(a.sendUs[typ]), RecordOnly: typ == "StateDelta"})
	}
	for _, typ := range []string{"Data", "ResultData"} {
		out = append(out,
			metricVal{Name: "transport.transit_us_p50." + typ, Value: median(a.transitUs[typ]), Unit: "us", N: len(a.transitUs[typ])},
			tail("transport.transit_us_p99."+typ, "us", a.transitUs[typ], 0.99))
	}
	var busyMax float64
	for _, ns := range a.engineBusyNs {
		busyMax = math.Max(busyMax, share(float64(ns), float64(a.windowNs)))
	}
	return append(out,
		metricVal{Name: "transport.bytes_per_tuple", Value: share(a.sentBytes, float64(tuples)), Unit: "B/tuple"},
		metricVal{Name: "transport.credit_blocked", Value: a.creditBlocked, Unit: "count"},
		metricVal{Name: "transport.unpaired_handles", Value: float64(a.unpaired), Unit: "count", RecordOnly: true},
		metricVal{Name: "transport.pairing_mismatches", Value: float64(a.mismatched), Unit: "count", RecordOnly: true},
		metricVal{Name: "engine.busy_share_max", Value: busyMax, Unit: "share"},
	)
}

// sumCounter totals every series whose name ends in suffix.
func sumCounter(mvs []obs.MetricValue, suffix string) float64 {
	var sum float64
	for _, mv := range mvs {
		if strings.HasSuffix(mv.Name, suffix) {
			sum += mv.Value
		}
	}
	return sum
}

// tail reports a tail percentile of xs, falling back (with a note) to
// the highest percentile the sample count allows.
func tail(name, unit string, xs []float64, q float64) metricVal {
	s := sortedCopy(xs)
	v, used := tailPercentile(s, q)
	m := metricVal{Name: name, Value: v, Unit: unit, N: len(s)}
	if used != q {
		if used == 0 {
			m.Note = "too few samples for any tail percentile"
		} else {
			m.Note = "p" + trimFloat(used*100) + " reported: p" + trimFloat(q*100) + " needs more samples"
		}
	}
	return m
}

func trimFloat(v float64) string { return strconv.FormatFloat(v, 'g', 3, 64) }

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// overhead is how much worse traced reads than untraced, as a share of
// untraced (positive = tracing cost).
func overhead(untraced, traced *outcome, name string, higherIsBetter bool) float64 {
	u, ok1 := untraced.metric(name)
	t, ok2 := traced.metric(name)
	if !ok1 || !ok2 || u.Value == 0 {
		return 0
	}
	if higherIsBetter {
		return 1 - t.Value/u.Value
	}
	return t.Value/u.Value - 1
}

// layerMetrics derives the per-layer breakdown of a distq workload from
// its traced run, with the same invocation's untraced run as the
// reference for the tracing overhead.
func layerMetrics(untraced, traced *outcome) []metricVal {
	a := newSpanAgg()
	var spills, relocations, forced int
	var spilledBytes int64
	var cleanupMax, cleanupSum float64
	var scanned int
	var cleanupResults uint64
	var stages *stageAcc
	for _, p := range traced.phases {
		a.addPhase(p.tn, p.window)
		spills += p.stats.Spills
		spilledBytes += p.stats.SpilledBytes
		relocations += p.stats.Relocations
		forced += p.stats.ForcedSpills
		cleanupMax = math.Max(cleanupMax, ms(p.summary.MaxElapsed))
		cleanupSum += ms(p.summary.TotalElapsed)
		scanned += p.summary.Tuples
		cleanupResults += p.summary.Results
		if p.stages != nil && p.stages.results > 0 {
			stages = p.stages
		}
	}
	var oracleNs float64
	var oracleTuples int
	var expected uint64
	for _, ex := range traced.expects {
		oracleNs += float64(ex.elapsed)
		oracleTuples += ex.tuples
		expected += ex.results
	}

	out := []metricVal{
		{Name: "workload.gen_lag_p99_ms", Value: traced.genLagP99Ms, Unit: "ms"},
		{Name: "split.ingest_us_mean", Value: mean(traced.ingestUs), Unit: "us", N: len(traced.ingestUs)},
		tail("split.ingest_us_p99", "us", traced.ingestUs, 0.99),
		{Name: "split.ingest_us_mean_untraced", Value: mean(untraced.ingestUs), Unit: "us", N: len(untraced.ingestUs)},
		tail("split.ingest_us_p99_untraced", "us", untraced.ingestUs, 0.99),
	}
	out = append(out, a.transportMetrics(traced.tuples)...)
	out = append(out, metricVal{Name: "engine.handle_us_mean.Data", Value: mean(a.engineDataUs), Unit: "us", N: len(a.engineDataUs)})
	if stages != nil {
		out = append(out, metricVal{Name: "engine.report_wait_ms_p50", Value: median(stages.reportWaitMs), Unit: "ms", N: len(stages.reportWaitMs)})
	} else {
		out = append(out, metricVal{Name: "engine.report_wait_ms_p50", Unit: "ms", Note: "no open-loop phase"})
	}
	out = append(out,
		metricVal{Name: "join.oracle_ns_per_tuple", Value: share(oracleNs, float64(oracleTuples)), Unit: "ns"},
		metricVal{Name: "join.results_per_ktuple", Value: share(float64(expected), float64(oracleTuples)/1000), Unit: "results/ktuple"},
		metricVal{Name: "spill.count", Value: float64(spills), Unit: "count"},
		metricVal{Name: "spill.bytes", Value: float64(spilledBytes), Unit: "B"},
		metricVal{Name: "spill.handle_ms_total", Value: float64(a.spillHandleNs) / 1e6, Unit: "ms"},
		metricVal{Name: "cleanup.max_engine_ms", Value: cleanupMax, Unit: "ms"},
		metricVal{Name: "cleanup.sum_engine_ms", Value: cleanupSum, Unit: "ms"},
		metricVal{Name: "cleanup.tuples_scanned", Value: float64(scanned), Unit: "tuples"},
		metricVal{Name: "cleanup.results", Value: float64(cleanupResults), Unit: "results"},
		metricVal{Name: "coordinator.relocations", Value: float64(relocations), Unit: "count"},
		metricVal{Name: "coordinator.forced_spills", Value: float64(forced), Unit: "count"},
		metricVal{Name: "coordinator.relocation_ms_p50", Value: median(a.relocationMs), Unit: "ms", N: len(a.relocationMs)},
		metricVal{Name: "coordinator.paused_ms_total", Value: float64(a.pausedNs) / 1e6, Unit: "ms"},
		metricVal{Name: "appserver.handle_us_mean.ResultData", Value: mean(a.appResultUs), Unit: "us", N: len(a.appResultUs)},
		metricVal{Name: "appserver.busy_share", Value: share(float64(a.appBusyNs), float64(a.windowNs)), Unit: "share"},
	)
	out = append(out, stageMetrics(stages)...)
	out = append(out,
		metricVal{Name: "trace.cpu_overhead_share", Value: overhead(untraced, traced, "cpu_ms_per_ktuple", false), Unit: "share"},
		metricVal{Name: "trace.latency_p50_overhead_share", Value: overhead(untraced, traced, "latency_p50_ms", false), Unit: "share"},
		metricVal{Name: "trace.ingest_tps_overhead_share", Value: overhead(untraced, traced, "ingest_tps", true), Unit: "share"},
	)
	return out
}

// stageMetrics reports the mean of each latency stage over the results
// the trace could attribute, and the share of the traced latency the
// stages leave unaccounted (unattributed results count in full).
func stageMetrics(st *stageAcc) []metricVal {
	var out []metricVal
	attributed := 0
	if st != nil {
		attributed = st.results - st.unattributed
	}
	var accounted float64
	for k, name := range stageNames {
		var v float64
		if attributed > 0 {
			v = st.sumsNs[k] / float64(attributed) / 1e6
			accounted += st.sumsNs[k]
		}
		out = append(out, metricVal{Name: "stages." + name + "_ms", Value: v, Unit: "ms", N: attributed})
	}
	var latMean, unaccounted float64
	if st != nil && st.results > 0 {
		latMean = st.latencyNs / float64(st.results) / 1e6
		unaccounted = math.Abs(st.latencyNs-accounted) / st.latencyNs
	}
	return append(out,
		metricVal{Name: "stages.latency_mean_ms", Value: latMean, Unit: "ms"},
		metricVal{Name: "stages.unaccounted_share", Value: unaccounted, Unit: "share"})
}

// Command benchgate is the benchmark regression gate: it runs the
// hot-path micro-benchmarks (internal/bench) at fixed iteration counts,
// one serial-vs-parallel cleanup comparison, one serial-vs-sharded
// run-time join comparison, the sustained TCP data-path saturation
// comparison (native wire codec vs the gob baseline), and one
// compressed figure run, writes the machine-readable BENCH_9.json
// report, and exits non-zero if any gated metric regressed more than
// the threshold against the committed BENCH_BASELINE.json (or, on
// multi-core machines, if the native codec fails its 2x throughput
// floor over gob).
//
// The join and cleanup comparisons record both passes unconditionally;
// a speedup is only meaningful when the report's gomaxprocs is > 1 (on
// a single-CPU machine the parallel pass cannot beat serial).
//
//	go run ./cmd/benchgate                  # full run, gate against baseline
//	go run ./cmd/benchgate -skip-figure     # micro-benchmarks only
//	go run ./cmd/benchgate -write-baseline  # refresh BENCH_BASELINE.json
//
// The figure run honours REPRO_SCALE and REPRO_DURATION_FACTOR like the
// figure benchmarks (bench_test.go); the default duration factor here
// is 0.05 so the gate stays a smoke, not an evaluation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/proto"
	"repro/internal/transport"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// Pre-PR baselines for the two gated join benchmarks, captured at
// N=300000 with the shared-payload harness before the allocation-lean
// join core landed. BENCH_4.json carries them so the before/after
// comparison travels with the report.
var prePR = map[string]bench.Metric{
	"join_process_count_only": {
		Name: "join_process_count_only", N: 300_000,
		NsPerOp: 283.7, AllocsPerOp: 0.0869, BytesPerOp: 163.3,
	},
	"join_process_materializing": {
		Name: "join_process_materializing", N: 300_000,
		NsPerOp: 110020.9, AllocsPerOp: 3329.3744, BytesPerOp: 80066.2,
	},
}

// baselineMetric is one committed reference measurement; Gate names the
// fields a regression fails on (ns_per_op is deliberately not gated by
// default — wall time is too machine-dependent for CI).
type baselineMetric struct {
	bench.Metric
	Gate []string `json:"gate"`
}

type baselineFile struct {
	Schema  string           `json:"schema"`
	Metrics []baselineMetric `json:"metrics"`
}

type cleanupReport struct {
	Serial   bench.CleanupRun `json:"serial"`
	Parallel bench.CleanupRun `json:"parallel"`
}

type joinReport struct {
	Serial   bench.JoinRun `json:"serial"`
	Parallel bench.JoinRun `json:"parallel"`
	// SpeedupX is serial elapsed over parallel elapsed; compare against
	// a target only when gomaxprocs > 1.
	SpeedupX float64 `json:"speedup_x"`
}

// saturationReport is the sustained TCP data-path comparison: the gob
// baseline against the native codec, serial and sharded receiver join.
type saturationReport struct {
	Gob            bench.SaturationRun `json:"gob"`
	NativeSerial   bench.SaturationRun `json:"native_serial"`
	NativeParallel bench.SaturationRun `json:"native_parallel"`
	// SpeedupX is native-parallel tuples/sec over the gob baseline at
	// the same join parallelism. Gated at >= 2 when gomaxprocs > 1.
	SpeedupX float64 `json:"speedup_x"`
}

// saturationGateX is the acceptance floor for the native-vs-gob
// sustained-throughput ratio, enforced only on multi-core machines
// (single-CPU boxes record the comparison without gating, like the
// cleanup and join comparisons).
const saturationGateX = 2.0

type figureReport struct {
	ID     string `json:"id"`
	Passed bool   `json:"passed"`
	WallNs int64  `json:"wall_ns"`
}

type regression struct {
	Metric   string  `json:"metric"`
	Field    string  `json:"field"`
	Baseline float64 `json:"baseline"`
	Measured float64 `json:"measured"`
	LimitPct float64 `json:"limit_pct"`
}

type gateReport struct {
	ThresholdPct float64      `json:"threshold_pct"`
	BaselineFile string       `json:"baseline_file"`
	Regressions  []regression `json:"regressions"`
	Passed       bool         `json:"passed"`
}

type report struct {
	Schema       string                  `json:"schema"`
	GoMaxProcs   int                     `json:"gomaxprocs"`
	Metrics      []bench.Metric          `json:"metrics"`
	Cleanup      cleanupReport           `json:"cleanup"`
	Join         joinReport              `json:"join"`
	Figure       *figureReport           `json:"figure,omitempty"`
	Saturation   *saturationReport       `json:"saturation,omitempty"`
	BaselinePre  map[string]bench.Metric `json:"baseline_pre_pr"`
	AllocsGainPc map[string]float64      `json:"allocs_improvement_pct"`
	Gate         gateReport              `json:"gate"`
}

func main() {
	out := flag.String("out", "BENCH_9.json", "report output path")
	baselinePath := flag.String("baseline", "BENCH_BASELINE.json", "committed baseline to gate against")
	threshold := flag.Float64("threshold", 15, "regression threshold in percent")
	skipFigure := flag.Bool("skip-figure", false, "skip the compressed figure run")
	writeBaseline := flag.Bool("write-baseline", false, "write measured metrics to the baseline path and exit")
	saturationOnly := flag.Bool("saturation-only", false, "run only the TCP saturation comparison (make bench-saturation)")
	flag.Parse()

	rep := report{
		Schema:       "distq-bench/1",
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		BaselinePre:  prePR,
		AllocsGainPc: map[string]float64{},
		Gate:         gateReport{ThresholdPct: *threshold, BaselineFile: *baselinePath, Passed: true},
	}

	if *saturationOnly {
		runSaturation(&rep)
		writeReport(*out, &rep)
		if !rep.Gate.Passed {
			reportRegressions(rep.Gate.Regressions)
			os.Exit(1)
		}
		return
	}

	for _, c := range append(bench.Cases(), bench.ResultIngestCase(appServerHandler)) {
		m := bench.Run(c, 0)
		rep.Metrics = append(rep.Metrics, m)
		fmt.Printf("%-28s n=%-8d %12.1f ns/op %12.4f allocs/op %12.1f B/op\n",
			m.Name, m.N, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp)
		if pre, ok := prePR[m.Name]; ok && pre.AllocsPerOp > 0 {
			rep.AllocsGainPc[m.Name] = 100 * (pre.AllocsPerOp - m.AllocsPerOp) / pre.AllocsPerOp
		}
	}

	if *writeBaseline {
		writeBaselineFile(*baselinePath, rep.Metrics)
		return
	}

	serial, parallel, err := bench.CleanupComparison()
	if err != nil {
		fatal(err)
	}
	rep.Cleanup = cleanupReport{Serial: serial, Parallel: parallel}
	fmt.Printf("cleanup serial   %d workers  elapsed %dns  critical-path %dns  (%d groups, %d results)\n",
		serial.Workers, serial.ElapsedNs, serial.CriticalPathNs, serial.Groups, serial.Results)
	fmt.Printf("cleanup parallel %d workers  elapsed %dns  critical-path %dns\n",
		parallel.Workers, parallel.ElapsedNs, parallel.CriticalPathNs)

	jSerial, jParallel, err := bench.JoinComparison()
	if err != nil {
		fatal(err)
	}
	rep.Join = joinReport{Serial: jSerial, Parallel: jParallel}
	if jParallel.ElapsedNs > 0 {
		rep.Join.SpeedupX = float64(jSerial.ElapsedNs) / float64(jParallel.ElapsedNs)
	}
	fmt.Printf("join serial   %d shard   elapsed %dns  (%d tuples, %d results)\n",
		jSerial.Shards, jSerial.ElapsedNs, jSerial.Tuples, jSerial.Results)
	fmt.Printf("join parallel %d shards  elapsed %dns  speedup %.2fx (meaningful only at gomaxprocs > 1; here %d)\n",
		jParallel.Shards, jParallel.ElapsedNs, rep.Join.SpeedupX, rep.GoMaxProcs)

	if !*skipFigure {
		opts := experiments.RunOpts{Scale: 600, DurationFactor: 0.05}
		if v, err := strconv.ParseFloat(os.Getenv("REPRO_SCALE"), 64); err == nil && v > 0 {
			opts.Scale = v
		}
		if v, err := strconv.ParseFloat(os.Getenv("REPRO_DURATION_FACTOR"), 64); err == nil && v > 0 {
			opts.DurationFactor = v
		}
		start := vclock.WallNow()
		figRep, err := experiments.Fig05(opts)
		if err != nil {
			fatal(fmt.Errorf("figure run: %w", err))
		}
		rep.Figure = &figureReport{ID: figRep.ID, Passed: figRep.Passed(), WallNs: vclock.WallSince(start).Nanoseconds()}
		fmt.Printf("figure %s passed=%v\n", figRep.ID, figRep.Passed())
	}

	runSaturation(&rep)

	rep.Gate.Regressions = append(rep.Gate.Regressions, gate(*baselinePath, rep.Metrics, *threshold)...)
	rep.Gate.Passed = len(rep.Gate.Regressions) == 0

	writeReport(*out, &rep)

	if !rep.Gate.Passed {
		reportRegressions(rep.Gate.Regressions)
		os.Exit(1)
	}
}

// appServerHandler returns the handler of a fresh materializing
// application server with an OnResult consumer, the distq facade's
// configuration.
func appServerHandler() transport.Handler {
	app := cluster.NewAppServer(vclock.NewManual(), true, func(proto.Phase, tuple.Result) {})
	return app.Handle
}

// runSaturation measures the TCP data-path comparison and applies the
// native-vs-gob throughput gate (multi-core machines only).
func runSaturation(rep *report) {
	gob, nSerial, nParallel, err := bench.SaturationComparison()
	if err != nil {
		fatal(err)
	}
	sat := &saturationReport{Gob: gob, NativeSerial: nSerial, NativeParallel: nParallel}
	if gob.TuplesPerSec > 0 {
		sat.SpeedupX = nParallel.TuplesPerSec / gob.TuplesPerSec
	}
	rep.Saturation = sat
	fmt.Printf("saturation gob             %d shards  %12.0f tuples/s  (%d tuples, batch %d)\n",
		gob.Shards, gob.TuplesPerSec, gob.Tuples, gob.Batch)
	fmt.Printf("saturation native serial   %d shard   %12.0f tuples/s\n",
		nSerial.Shards, nSerial.TuplesPerSec)
	fmt.Printf("saturation native parallel %d shards  %12.0f tuples/s  speedup %.2fx vs gob (gate >=%.1fx at gomaxprocs > 1; here %d)\n",
		nParallel.Shards, nParallel.TuplesPerSec, sat.SpeedupX, saturationGateX, rep.GoMaxProcs)
	if rep.GoMaxProcs > 1 && sat.SpeedupX < saturationGateX {
		rep.Gate.Regressions = append(rep.Gate.Regressions, regression{
			Metric: "saturation_native_vs_gob", Field: "tuples_per_sec",
			Baseline: gob.TuplesPerSec * saturationGateX, Measured: nParallel.TuplesPerSec,
			LimitPct: 0,
		})
		rep.Gate.Passed = false
	}
}

func writeReport(path string, rep *report) {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

func reportRegressions(regs []regression) {
	for _, r := range regs {
		fmt.Fprintf(os.Stderr, "REGRESSION %s %s: %.4f -> %.4f (limit +%.0f%%)\n",
			r.Metric, r.Field, r.Baseline, r.Measured, r.LimitPct)
	}
}

// gate compares measured metrics against the committed baseline. A
// missing baseline file disables gating (first run on a new machine)
// but is reported on stderr.
func gate(path string, metrics []bench.Metric, thresholdPct float64) []regression {
	buf, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: no baseline at %s; gating skipped\n", path)
		return nil
	}
	var base baselineFile
	if err := json.Unmarshal(buf, &base); err != nil {
		fatal(fmt.Errorf("parse baseline %s: %w", path, err))
	}
	measured := make(map[string]bench.Metric, len(metrics))
	for _, m := range metrics {
		measured[m.Name] = m
	}
	var regs []regression
	for _, b := range base.Metrics {
		m, ok := measured[b.Name]
		if !ok {
			continue
		}
		for _, field := range b.Gate {
			var baseV, measV float64
			switch field {
			case "ns_per_op":
				baseV, measV = b.NsPerOp, m.NsPerOp
			case "allocs_per_op":
				baseV, measV = b.AllocsPerOp, m.AllocsPerOp
			case "bytes_per_op":
				baseV, measV = b.BytesPerOp, m.BytesPerOp
			default:
				fatal(fmt.Errorf("baseline %s: unknown gate field %q", b.Name, field))
			}
			// The small absolute slack keeps near-zero baselines (the
			// fractional-alloc hot paths) from tripping on noise.
			if measV > baseV*(1+thresholdPct/100)+0.01 {
				regs = append(regs, regression{
					Metric: b.Name, Field: field,
					Baseline: baseV, Measured: measV, LimitPct: thresholdPct,
				})
			}
		}
	}
	return regs
}

func writeBaselineFile(path string, metrics []bench.Metric) {
	base := baselineFile{Schema: "distq-bench-baseline/1"}
	for _, m := range metrics {
		base.Metrics = append(base.Metrics, baselineMetric{
			Metric: m,
			Gate:   []string{"allocs_per_op", "bytes_per_op"},
		})
	}
	buf, err := json.MarshalIndent(&base, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}

// Command e2ebench is the repository's end-to-end benchmark. It drives
// a whole cluster over TCP loopback — load generator, split host,
// engines, coordinator, application server, all in this one process —
// through one workload, checks every delivered result against an
// in-process oracle, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer breakdown of a traced run) by name and unit.
// The last line of standard output is a JSON summary:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Build and run it from the repository root with e2ebench/run.sh; see
// README.md in this directory for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: sparse_tcp, paper_adaptive or replicated_failover")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 40, "measured length of the run (see README.md for how each workload spends it)")
		trace   = flag.Int("trace", 0, "1: also run traced and report the per-layer metrics")
		out     = flag.String("out", ".bench_build/e2ebench", "directory for result records, spans and spill stores")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (one of %s), --seconds ≥ 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	tmp := filepath.Join(*out, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	cfg := runCfg{seed: *seed, seconds: *seconds, tmpDir: tmp}
	untraced, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", *name, err)
		return 1
	}
	rec := record{
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Meta:      hostMeta(*seed, untraced),
		Exactness: untraced.exact,
		EndToEnd:  untraced.e2e,
		Notes:     untraced.notes,
	}
	summary := untraced.e2e
	exact := untraced.exact
	if *trace == 1 {
		cfg.traced = true
		traced, err := wl(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s traced: %v\n", *name, err)
			return 1
		}
		layers := traced.layers
		if layers == nil {
			layers = layerMetrics(untraced, traced)
		} else {
			layers = append(layers, metricVal{Name: "trace.cpu_overhead_share", Value: overhead(untraced, traced, "cpu_ms_per_ktuple", false), Unit: "share"})
		}
		rec.PerLayer = layers
		rec.TracedEndToEnd = traced.e2e
		rec.TracedExactness = &traced.exact
		rec.Notes = append(rec.Notes, traced.notes...)
		rec.SpansFile = filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := writeSpans(rec.SpansFile, traced.phases); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: writing spans: %v\n", err)
			return 1
		}
		summary = layers
		exact.add(traced.exact)
		for _, m := range layers {
			if m.Name == "stages.unaccounted_share" && m.Value > maxUnaccounted {
				rec.Notes = append(rec.Notes, fmt.Sprintf("stage accounting leaves %.0f%% of the traced latency unaccounted (limit %.0f%%)", 100*m.Value, 100*maxUnaccounted))
			}
		}
	}
	if !rec.Meta.Sustained {
		rec.Notes = append(rec.Notes, fmt.Sprintf("UNSUSTAINABLE: open-loop generator lag p99 %.1f ms (limit %v) or Drain %.2f s (limit %v); latency is backlog",
			rec.Meta.GenLagP99Ms, maxGenLagP99, rec.Meta.DrainBacklogS, maxDrain))
	}

	recordFile := filepath.Join(*out, fmt.Sprintf("record-%s-seed%d-trace%d.json", *name, *seed, *trace))
	if err := writeJSON(recordFile, rec); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: writing record: %v\n", err)
		return 1
	}
	printTable(rec)
	fmt.Printf("record: %s\n", recordFile)

	final := map[string]any{
		"correct":   exact.Failed == 0,
		"attempted": max(exact.Expected, 1),
		"failed":    exact.Failed,
	}
	metrics := make(map[string]map[string]any, len(summary))
	for _, m := range summary {
		if m.RecordOnly {
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "e2ebench: metric %s is not a number\n", m.Name)
			return 1
		}
		metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	final["metrics"] = metrics
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// maxUnaccounted is the share of traced latency the stage breakdown may
// leave unexplained before it stops being a breakdown.
const maxUnaccounted = 0.2

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// record is everything one invocation measured, written beside the
// spans so later comparisons can cite it.
type record struct {
	Workload        string      `json:"workload"`
	Seed            int64       `json:"seed"`
	Seconds         int         `json:"seconds"`
	Trace           bool        `json:"trace"`
	Meta            meta        `json:"meta"`
	Exactness       exactness   `json:"exactness"`
	EndToEnd        []metricVal `json:"end_to_end"`
	TracedExactness *exactness  `json:"traced_exactness,omitempty"`
	TracedEndToEnd  []metricVal `json:"traced_end_to_end,omitempty"`
	PerLayer        []metricVal `json:"per_layer,omitempty"`
	Notes           []string    `json:"notes,omitempty"`
	SpansFile       string      `json:"spans_file,omitempty"`
}

// meta describes the host and the run's health.
type meta struct {
	NProc         int     `json:"nproc"`
	CPUModel      string  `json:"cpu_model"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	Seed          int64   `json:"seed"`
	GenLagP50Ms   float64 `json:"gen_lag_p50_ms"`
	GenLagP99Ms   float64 `json:"gen_lag_p99_ms"`
	GenLagMaxMs   float64 `json:"gen_lag_max_ms"`
	DrainBacklogS float64 `json:"drain_backlog_s"`
	Sustained     bool    `json:"sustained"`
}

func hostMeta(seed int64, o *outcome) meta {
	return meta{
		NProc:         runtime.NumCPU(),
		CPUModel:      cpuModel(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		Seed:          seed,
		GenLagP50Ms:   o.genLagP50Ms,
		GenLagP99Ms:   o.genLagP99Ms,
		GenLagMaxMs:   o.genLagMaxMs,
		DrainBacklogS: o.drainS,
		Sustained:     o.sustained,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printTable(rec record) {
	fmt.Printf("e2ebench %s seed=%d seconds=%d trace=%v  (%d CPUs, GOMAXPROCS=%d, %s, %s)\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Meta.NProc, rec.Meta.GOMAXPROCS, rec.Meta.GoVersion, rec.Meta.CPUModel)
	e := rec.Exactness
	fmt.Printf("exactness: expected=%d delivered=%d missed=%d extra=%d duplicates=%d failed_ingest=%d fingerprint_match=%v error_ratio=%.6f\n",
		e.Expected, e.Delivered, e.Missed, e.Extra, e.Duplicates, e.FailedIngest, e.FingerprintMatch, e.ErrorRatio)
	fmt.Printf("generator: lag p50=%.2f p99=%.2f max=%.2f ms, drain backlog=%.3f s, sustained=%v\n",
		rec.Meta.GenLagP50Ms, rec.Meta.GenLagP99Ms, rec.Meta.GenLagMaxMs, rec.Meta.DrainBacklogS, rec.Meta.Sustained)
	section := func(title string, ms []metricVal) {
		if len(ms) == 0 {
			return
		}
		fmt.Println(title)
		for _, m := range ms {
			extra := ""
			if m.N > 0 {
				extra = fmt.Sprintf("  (n=%d)", m.N)
			}
			if m.Note != "" {
				extra += "  [" + m.Note + "]"
			}
			fmt.Printf("  %-40s %16.6g %-10s%s\n", m.Name, m.Value, m.Unit, extra)
		}
	}
	section("end-to-end (untraced):", rec.EndToEnd)
	section("end-to-end (traced run):", rec.TracedEndToEnd)
	section("per-layer (traced run):", rec.PerLayer)
	for _, n := range rec.Notes {
		fmt.Println("note:", n)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeSpans writes every traced span, one JSON object per line, with
// the transit of the message a handler span consumed.
func writeSpans(path string, phases []*phaseResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, p := range phases {
		if p.tn == nil {
			continue
		}
		_, spans := p.tn.snapshot()
		for _, s := range spans {
			transit := int64(-1)
			if s.kind == spanHandle && s.rec != nil {
				if e := s.rec.sendEnd.Load(); e > 0 {
					transit = max(s.start-e, 0)
				}
			}
			fmt.Fprintf(w, `{"phase":%d,"node":%q,"peer":%q,"kind":%q,"type":%q,"tick":%q,"start_ns":%d,"end_ns":%d,"transit_ns":%d}`+"\n",
				i, s.node, s.peer, s.kind, s.typ, s.tick, s.start, s.end, transit)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

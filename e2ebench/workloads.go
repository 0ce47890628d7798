package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/distq"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// runCfg is one invocation's settings.
type runCfg struct {
	seed    int64
	seconds int
	traced  bool
	tmpDir  string // scratch space inside the checkout (spill stores)
}

// A workload runs once untraced or once traced and reports what it
// measured.
type workloadFunc func(cfg runCfg) (*outcome, error)

var workloads = map[string]workloadFunc{
	"sparse_tcp":          runSparse,
	"paper_adaptive":      runAdaptive,
	"replicated_failover": runFailover,
}

// Shared shape of every workload: a 3-way join over 120 partition
// groups with 40-byte payloads, three engines on TCP loopback with the
// native wire codec.
const (
	inputs       = 3
	partitions   = 120
	payloadBytes = 40
)

var engines = []distq.NodeID{"e1", "e2", "e3"}

// sparse_tcp: the data path alone. One in 16 consecutive key triples
// shares a key and every other key is unique, so about one result per
// 48 tuples; no spill, no adaptation. A saturated closed loop measures
// ingest throughput; an open loop at a fixed rate of about half the
// saturated rate measures latency, which the engines' result batching
// (a sparse result waits for thousands more before it ships) dominates.
const (
	sparseMatchEvery = 16
	// sparseSatTuples per saturated repetition; one repetition per four
	// --seconds (at most sparseTracedReps in a traced run, whose
	// breakdown needs no median).
	sparseSatTuples  = 500_000
	sparseTracedReps = 3
	// sparsePacedRate is the open loop's fixed offered load (tuples/s),
	// held for sparsePacedTime: long enough for every engine to ship a
	// full result batch twice, short enough that the ~0.7 KB of heap
	// each unique-key tuple costs stays under a gigabyte. The open loop
	// runs sparsePacedReps times.
	sparsePacedRate = 300_000
	sparsePacedTime = 4 * time.Second
	sparsePacedReps = 3
)

// sparseKeys builds n keys for one phase. Tuple i is on stream i%3 in
// triple i/3; the seed picks which triple of every 16 matches and
// salts every key.
func sparseKeys(seed int64, phase uint64, n int) []uint64 {
	salt := mix(uint64(seed)<<8 ^ phase)
	match := int(salt % sparseMatchEvery)
	keys := make([]uint64, n)
	for i := range keys {
		x := uint64(i)
		if triple := i / inputs; triple%sparseMatchEvery == match {
			x = uint64(triple * inputs) // all three share their first tuple's key
		}
		keys[i] = mix(salt ^ x)
	}
	return keys
}

func sparseOptions() distq.Options {
	return distq.Options{
		Engines:         engines,
		Inputs:          inputs,
		Partitions:      partitions,
		Strategy:        distq.StrategySpec{Kind: distq.NoAdaptation},
		JoinParallelism: runtime.GOMAXPROCS(0),
	}
}

func runSparse(cfg runCfg) (*outcome, error) {
	payload := make([]byte, payloadBytes)
	satReps, pacedReps := max(cfg.seconds/4, 1), sparsePacedReps
	if cfg.traced {
		satReps, pacedReps = min(satReps, sparseTracedReps), 1
	}
	pacedN := int(sparsePacedRate*sparsePacedTime.Seconds()) / inputs * inputs
	satKeys := sparseKeys(cfg.seed, 0, sparseSatTuples)
	pacedKeys := sparseKeys(cfg.seed, 1, pacedN)
	satExp := replayOracle(inputs, partitions, satKeys, payload)
	pacedExp := replayOracle(inputs, partitions, pacedKeys, payload)

	var phases []*phaseResult
	var expects []expectation
	for r := 0; r < satReps; r++ {
		p, err := runPhase(phaseSpec{opts: sparseOptions(), keys: satKeys, payload: payload, traced: cfg.traced})
		if err != nil {
			return nil, fmt.Errorf("saturated repetition %d: %w", r+1, err)
		}
		phases = append(phases, p)
		expects = append(expects, satExp)
	}
	for r := 0; r < pacedReps; r++ {
		p, err := runPhase(phaseSpec{
			opts: sparseOptions(), keys: pacedKeys, payload: payload, traced: cfg.traced,
			due: func(i int) time.Duration { return time.Duration(float64(i) * 1e9 / sparsePacedRate) },
		})
		if err != nil {
			return nil, fmt.Errorf("open-loop repetition %d: %w", r+1, err)
		}
		phases = append(phases, p)
		expects = append(expects, pacedExp)
	}
	return distqOutcome(phases, expects, phases[:satReps], phases[satReps:])
}

// paper_adaptive: the paper's Figure 12 setup through distq. Three
// engines start 4:1:1 skewed; lazy-disk relocation, local spill at 22%
// of the projected state with k=30%, a file-backed spill store, the
// base workload (join rate 3, tuple range 30K, 30 ms inter-arrival)
// fed open-loop at the virtual pace compressed adaptiveScale times,
// then Drain and Cleanup. Relocation, spill, cleanup and dense result
// reporting do the work; the data path carries about 15k tuples/s.
// A run repeats the whole script on fresh clusters, once per
// adaptiveRepTime of --seconds (once in a traced run). Each repetition
// feeds 15 virtual minutes. The output rate grows with the join factor,
// so the latency tail sits at the end of a repetition; at 15 virtual
// minutes result batching still dominates it, while longer repetitions
// queue results at the application server and the tail turns with the
// host's load.
const (
	adaptiveScale        = 150
	adaptiveInterArrival = 30 * time.Millisecond
	adaptiveRepTime      = 6 * time.Second
)

func adaptiveWorkload(seed int64) workload.Config {
	return workload.Config{
		Streams:      inputs,
		Partitions:   partitions,
		Classes:      []workload.Class{{Fraction: 1, JoinRate: 3, TupleRange: 30000}},
		InterArrival: adaptiveInterArrival,
		PayloadBytes: payloadBytes,
		Seed:         seed,
	}
}

func runAdaptive(cfg runCfg) (*outcome, error) {
	reps := max(cfg.seconds/int(adaptiveRepTime.Seconds()), 1)
	if cfg.traced {
		reps = 1
	}
	virtual := adaptiveRepTime * adaptiveScale
	perStream := int(virtual / adaptiveInterArrival)
	gen, err := workload.New(adaptiveWorkload(cfg.seed))
	if err != nil {
		return nil, err
	}
	keys := make([]uint64, 0, perStream*inputs)
	for k := 0; k < perStream; k++ {
		ts := vclock.Time(0).Add(time.Duration(k) * adaptiveInterArrival)
		for s := 0; s < inputs; s++ {
			keys = append(keys, gen.Next(s, ts).Key)
		}
	}
	payload := make([]byte, payloadBytes)
	exp := replayOracle(inputs, partitions, keys, payload)

	// Projected state as the paper's harness computes it: every input
	// tuple retained at its accounted size (payload + 56 bytes).
	threshold := int64(len(keys)) * (payloadBytes + 56) * 22 / 100
	step := adaptiveInterArrival / adaptiveScale
	var phases []*phaseResult
	var expects []expectation
	for r := 0; r < reps; r++ {
		dir, err := os.MkdirTemp(cfg.tmpDir, "store-")
		if err != nil {
			return nil, err
		}
		o := distq.Options{
			Engines:            engines,
			Inputs:             inputs,
			Partitions:         partitions,
			InitialWeights:     []int{4, 1, 1},
			Strategy:           distq.LazyDisk(0.8, 45*time.Second),
			Spill:              distq.SpillConfig{MemThreshold: threshold, Fraction: 0.3},
			StoreDir:           dir,
			TimeScale:          adaptiveScale,
			StatsInterval:      5 * time.Second,
			SpillCheckInterval: 2 * time.Second,
			LBInterval:         10 * time.Second,
		}
		p, err := runPhase(phaseSpec{
			opts: o, keys: keys, payload: payload, traced: cfg.traced,
			due: func(i int) time.Duration { return time.Duration(i/inputs) * step },
		})
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", r+1, err)
		}
		phases = append(phases, p)
		expects = append(expects, exp)
	}
	return distqOutcome(phases, expects, nil, phases)
}

package main

import (
	"time"

	"repro/internal/join"
	"repro/internal/partition"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// expectation is the exact outcome of a workload's input, computed by
// replaying it through a single-threaded in-process join.
type expectation struct {
	results     uint64
	fingerprint uint64 // order-independent: the wrapping sum of fingerprint(r)
	tuples      int
	elapsed     time.Duration
}

// replayOracle replays keys (tuple i is seq i/inputs of stream
// i%inputs, the order the benchmark ingests them in) through
// join.New(...).Process. The pass is timed: it is the serial baseline
// of the join layer.
func replayOracle(inputs, partitions int, keys []uint64, payload []byte) expectation {
	var ex expectation
	op := join.New(inputs, partition.NewFunc(partitions), func(r tuple.Result) {
		ex.fingerprint += fingerprint(r)
	})
	start := vclock.WallNow()
	for i, k := range keys {
		t := tuple.Tuple{Stream: uint8(i % inputs), Key: k, Seq: uint64(i / inputs), Payload: payload}
		if _, err := op.Process(t); err != nil {
			panic(err) // stream and key are built in range above
		}
	}
	ex.elapsed = vclock.WallSince(start)
	ex.results = op.Output()
	ex.tuples = len(keys)
	return ex
}

// fingerprint hashes one result's identity (key and per-stream seqs).
func fingerprint(r tuple.Result) uint64 {
	h := mix(r.Key)
	for _, s := range r.Seqs {
		h = mix(h ^ s)
	}
	return h
}

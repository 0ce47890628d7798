package main

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/transport"
)

// flushNet is a one-endpoint network whose endpoint counts
// FlushOutbound calls, standing in for a coalescing transport.
type flushNet struct{ ep *flushEndpoint }

type flushEndpoint struct {
	node    partition.NodeID
	flushes atomic.Int64
}

func (n *flushNet) Attach(node partition.NodeID, _ transport.Handler) (transport.Endpoint, error) {
	n.ep = &flushEndpoint{node: node}
	return n.ep, nil
}
func (n *flushNet) Close() error { return nil }

func (e *flushEndpoint) Node() partition.NodeID                     { return e.node }
func (e *flushEndpoint) Send(partition.NodeID, proto.Message) error { return nil }
func (e *flushEndpoint) Close() error                               { return nil }
func (e *flushEndpoint) FlushOutbound()                             { e.flushes.Add(1) }

// The engine acknowledges a Drain only after transport.FlushOutbound
// pushed its coalesced frames; through the trace wrapper that call must
// still reach the coalescing endpoint, or the ack could overtake data.
func TestTraceNetForwardsFlushOutbound(t *testing.T) {
	inner := &flushNet{}
	tn := newTraceNet(inner, time.Now())
	ep, err := tn.Attach("e1", func(partition.NodeID, proto.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ep.(transport.OutboundFlusher); !ok {
		t.Fatal("wrapped endpoint does not implement transport.OutboundFlusher")
	}
	transport.FlushOutbound(ep)
	if got := inner.ep.flushes.Load(); got != 1 {
		t.Fatalf("inner FlushOutbound called %d times, want 1", got)
	}
	var _ transport.Instrumentable = tn
	var _ interface {
		AddNode(partition.NodeID, string)
	} = tn
}

// Concurrent senders on one pair, mixed message types: every handler
// call must be paired with the send of exactly the message it handles.
func TestTraceNetFIFOPairing(t *testing.T) {
	const senders, perSender = 4, 500
	tn := newTraceNet(transport.NewInproc(), time.Now())
	defer tn.Close()
	var sent sync.Map // *msgRec → message index
	tn.onSend = func(rec *msgRec, msg proto.Message) {
		switch m := msg.(type) {
		case proto.Data:
			sent.Store(rec, binary.LittleEndian.Uint64(m.Payload))
		case proto.ResultData:
			sent.Store(rec, binary.LittleEndian.Uint64(m.Payload))
		}
	}
	var handled, wrong atomic.Int64
	done := make(chan struct{})
	_, err := tn.Attach("b", func(_ partition.NodeID, msg proto.Message) {
		var idx uint64
		switch m := msg.(type) {
		case proto.Data:
			idx = binary.LittleEndian.Uint64(m.Payload)
		case proto.ResultData:
			idx = binary.LittleEndian.Uint64(m.Payload)
		}
		if v, ok := sent.Load(tn.handling("b")); !ok || v.(uint64) != idx {
			wrong.Add(1)
		}
		if handled.Add(1) == senders*perSender {
			close(done)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := tn.Attach("a", func(partition.NodeID, proto.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				payload := binary.LittleEndian.AppendUint64(nil, uint64(s*perSender+i))
				var msg proto.Message = proto.Data{Payload: payload}
				if i%3 == 0 {
					msg = proto.ResultData{Payload: payload}
				}
				if err := a.Send("b", msg); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("handled %d of %d messages", handled.Load(), senders*perSender)
	}
	if wrong.Load() != 0 || tn.unpaired.Load() != 0 || tn.mismatched.Load() != 0 {
		t.Fatalf("mispaired %d, unpaired %d, type mismatches %d", wrong.Load(), tn.unpaired.Load(), tn.mismatched.Load())
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	sorted := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n      int
		q      float64
		want   float64
		refuse bool
	}{
		{n: 100, q: 0.9, want: 90},
		{n: 100, q: 0.95, refuse: true},
		{n: 999, q: 0.99, refuse: true},
		{n: 1000, q: 0.99, want: 990},
		{n: 20, q: 0.5, want: 10},
		{n: 19, q: 0.5, refuse: true},
		{n: 5, q: 0.5, refuse: true},
	}
	for _, c := range cases {
		v, err := percentile(sorted(c.n), c.q)
		if c.refuse {
			if err == nil {
				t.Errorf("n=%d p%g = %v, want refusal", c.n, c.q*100, v)
			}
			continue
		}
		if err != nil || v != c.want {
			t.Errorf("n=%d p%g = %v, %v; want %v", c.n, c.q*100, v, err, c.want)
		}
	}
	if v, used := tailPercentile(sorted(40), 0.99); used != 0.75 || v != 30 {
		t.Errorf("tailPercentile(n=40, 0.99) = %v at q=%v, want 30 at q=0.75", v, used)
	}
}

// The oracle must agree with what the cluster reports producing, on a
// sparse and a dense input, untraced and traced.
func TestOracleMatchesSnapshot(t *testing.T) {
	payload := make([]byte, payloadBytes)
	gen := func(n int) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = mix(uint64(i)) % 600 // dense: ~5 tuples per key per stream
		}
		return keys
	}
	for _, c := range []struct {
		name   string
		keys   []uint64
		traced bool
	}{
		{"sparse", sparseKeys(7, 0, 3000), false},
		{"dense", gen(9000), false},
		{"dense_traced", gen(9000), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			ex := replayOracle(inputs, partitions, c.keys, payload)
			if ex.results == 0 {
				t.Fatal("oracle expects no results; the input does not exercise the check")
			}
			opts := sparseOptions()
			p, err := runPhase(phaseSpec{opts: opts, keys: c.keys, payload: payload, traced: c.traced})
			if err != nil {
				t.Fatal(err)
			}
			if p.stats.Output != ex.results {
				t.Errorf("Snapshot().Output = %d, oracle %d", p.stats.Output, ex.results)
			}
			if e := check(p, ex); e.Failed != 0 {
				t.Errorf("exactness check failed: %+v", e)
			}
			if c.traced && (p.tn.unpaired.Load() != 0 || p.tn.mismatched.Load() != 0) {
				t.Errorf("traced run: %d unpaired handler calls, %d type mismatches", p.tn.unpaired.Load(), p.tn.mismatched.Load())
			}
		})
	}
}

// An open-loop traced phase splits every result's latency into stages
// that add up to it.
func TestStagesAccountForLatency(t *testing.T) {
	keys := sparseKeys(3, 1, 30000)
	payload := make([]byte, payloadBytes)
	p, err := runPhase(phaseSpec{
		opts: sparseOptions(), keys: keys, payload: payload, traced: true,
		due: func(i int) time.Duration { return time.Duration(i) * 10 * time.Microsecond },
	})
	if err != nil {
		t.Fatal(err)
	}
	st := p.stages
	if st.results == 0 || st.unattributed != 0 {
		t.Fatalf("stage accounting saw %d results, %d unattributed", st.results, st.unattributed)
	}
	for _, m := range stageMetrics(st) {
		if m.Name == "stages.unaccounted_share" && m.Value > 0.2 {
			t.Errorf("%.1f%% of traced latency unaccounted", 100*m.Value)
		}
	}
}

package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// traceNet wraps a transport.Network and records, from outside the
// program, a span around every Endpoint.Send and every handler call,
// and the transit of each message from the return of its Send to the
// start of its handler. Like transport/faulty it forwards the optional
// interfaces the program asserts on its network and endpoints
// (Instrumentable, the AddNode directory extension, OutboundFlusher),
// and it instruments nodes nobody else did with its own registry, so
// framed bytes and credit counters come from the transport itself.
//
// Sends and handler calls are paired by per-(sender, receiver) FIFO
// order, which the transport guarantees. Senders on one pair are
// serialized across the inner Send, so the order in which records are
// queued is the order the transport delivers in; handlers only touch
// the queue, never the send lock, so a Send blocked on credit cannot
// hold up the receiver that would grant it.
type traceNet struct {
	inner transport.Network
	base  time.Time
	reg   *obs.Registry

	// onSend, when set before the first Attach, sees every message
	// before it is handed to the inner Send (the record's sendStart is
	// taken after it returns).
	onSend func(rec *msgRec, msg proto.Message)

	pairs sync.Map // pairKey → *pairQueue

	mu           sync.Mutex
	instrumented map[partition.NodeID]bool
	current      map[partition.NodeID]*atomic.Pointer[msgRec]
	recs         []*msgRec
	spans        []span

	unpaired   atomic.Int64
	mismatched atomic.Int64
}

type pairKey struct{ from, to partition.NodeID }

type pairQueue struct {
	send sync.Mutex // serializes Sends on the pair

	mu sync.Mutex
	q  []*msgRec
}

// msgRec is one message's life: times are nanoseconds since the
// network's base, zero while not yet reached.
type msgRec struct {
	from, to partition.NodeID
	typ      string
	epoch    uint64 // relocation epoch; 0 for other messages

	sendStart, sendEnd     atomic.Int64
	handleStart, handleEnd atomic.Int64
	failed                 atomic.Bool
}

type spanKind uint8

const (
	spanSend spanKind = iota
	spanHandle
)

func (k spanKind) String() string {
	if k == spanSend {
		return "send"
	}
	return "handle"
}

// span is one Send or one handler call at node.
type span struct {
	node, peer partition.NodeID
	kind       spanKind
	typ        string
	tick       string // Tick kind for self-addressed timer messages
	start, end int64
	rec        *msgRec
}

func newTraceNet(inner transport.Network, base time.Time) *traceNet {
	return &traceNet{
		inner:        inner,
		base:         base,
		reg:          obs.NewRegistry(),
		instrumented: make(map[partition.NodeID]bool),
		current:      make(map[partition.NodeID]*atomic.Pointer[msgRec]),
	}
}

func (n *traceNet) now() int64 { return int64(vclock.WallSince(n.base)) }

// roleOf names the cluster role a node plays.
func roleOf(node partition.NodeID) string {
	switch node {
	case cluster.CoordinatorNode:
		return "coordinator"
	case cluster.GeneratorNode:
		return "gen"
	case cluster.AppServerNode:
		return "app"
	default:
		return "engine"
	}
}

// Instrument implements transport.Instrumentable by forwarding: a node
// its owner instruments keeps the owner's metrics.
func (n *traceNet) Instrument(node partition.NodeID, m *transport.Metrics) {
	n.mu.Lock()
	n.instrumented[node] = true
	n.mu.Unlock()
	if instr, ok := n.inner.(transport.Instrumentable); ok {
		instr.Instrument(node, m)
	}
}

// AddNode forwards the directory extension that engines and the
// coordinator assert on their network.
func (n *traceNet) AddNode(node partition.NodeID, addr string) {
	if d, ok := n.inner.(interface {
		AddNode(partition.NodeID, string)
	}); ok {
		d.AddNode(node, addr)
	}
}

// Close implements transport.Network.
func (n *traceNet) Close() error { return n.inner.Close() }

// Attach implements transport.Network, wrapping the handler and the
// returned endpoint.
func (n *traceNet) Attach(node partition.NodeID, h transport.Handler) (transport.Endpoint, error) {
	cur := &atomic.Pointer[msgRec]{}
	n.mu.Lock()
	own := !n.instrumented[node]
	n.current[node] = cur
	n.mu.Unlock()
	if instr, ok := n.inner.(transport.Instrumentable); ok && own {
		instr.Instrument(node, transport.NewMetrics(n.reg, roleOf(node)))
	}
	ep, err := n.inner.Attach(node, func(from partition.NodeID, msg proto.Message) {
		rec := n.pop(from, node, msg)
		start := n.now()
		if rec != nil {
			rec.handleStart.Store(start)
		}
		cur.Store(rec)
		h(from, msg)
		cur.Store(nil)
		end := n.now()
		if rec != nil {
			rec.handleEnd.Store(end)
		}
		n.addSpan(span{node: node, peer: from, kind: spanHandle, typ: transport.MsgType(msg), tick: tickKind(msg), start: start, end: end, rec: rec})
	})
	if err != nil {
		return nil, err
	}
	return &traceEndpoint{net: n, inner: ep}, nil
}

// handling returns the record of the message node's handler is running
// (nil between calls); callbacks made from inside a handler use it.
func (n *traceNet) handling(node partition.NodeID) *msgRec {
	n.mu.Lock()
	cur := n.current[node]
	n.mu.Unlock()
	if cur == nil {
		return nil
	}
	return cur.Load()
}

func (n *traceNet) pair(from, to partition.NodeID) *pairQueue {
	k := pairKey{from, to}
	if p, ok := n.pairs.Load(k); ok {
		return p.(*pairQueue)
	}
	p, _ := n.pairs.LoadOrStore(k, &pairQueue{})
	return p.(*pairQueue)
}

// pop pairs a handler call with the oldest outstanding send on its
// pair. A type mismatch means a message was lost or reordered.
func (n *traceNet) pop(from, to partition.NodeID, msg proto.Message) *msgRec {
	p := n.pair(from, to)
	p.mu.Lock()
	if len(p.q) == 0 {
		p.mu.Unlock()
		n.unpaired.Add(1)
		return nil
	}
	rec := p.q[0]
	p.q[0] = nil
	p.q = p.q[1:]
	if len(p.q) == 0 {
		p.q = nil
	}
	p.mu.Unlock()
	if rec.typ != transport.MsgType(msg) {
		n.mismatched.Add(1)
	}
	return rec
}

func (n *traceNet) addSpan(s span) {
	n.mu.Lock()
	n.spans = append(n.spans, s)
	n.mu.Unlock()
}

// snapshot returns the records and spans gathered so far.
func (n *traceNet) snapshot() ([]*msgRec, []span) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]*msgRec(nil), n.recs...), append([]span(nil), n.spans...)
}

func tickKind(msg proto.Message) string {
	if t, ok := msg.(proto.Tick); ok {
		return t.Kind
	}
	return ""
}

// relocationEpoch returns the epoch of the 8-step relocation protocol's
// messages (and its abort path), 0 for everything else.
func relocationEpoch(msg proto.Message) uint64 {
	//distqlint:allow protoexhaustive: classifier over relocation messages, not a handler
	switch m := msg.(type) {
	case proto.CptV:
		return m.Epoch
	case proto.PtV:
		return m.Epoch
	case proto.Pause:
		return m.Epoch
	case proto.PauseMarker:
		return m.Epoch
	case proto.MarkerAck:
		return m.Epoch
	case proto.SendStates:
		return m.Epoch
	case proto.StateTransfer:
		return m.Epoch
	case proto.Installed:
		return m.Epoch
	case proto.Remap:
		return m.Epoch
	case proto.RemapAck:
		return m.Epoch
	case proto.RelocAbort:
		return m.Epoch
	case proto.RelocAbortAck:
		return m.Epoch
	default:
		return 0
	}
}

// traceEndpoint wraps one attached node's endpoint.
type traceEndpoint struct {
	net   *traceNet
	inner transport.Endpoint
}

// Node implements transport.Endpoint.
func (e *traceEndpoint) Node() partition.NodeID { return e.inner.Node() }

// Close implements transport.Endpoint.
func (e *traceEndpoint) Close() error { return e.inner.Close() }

// FlushOutbound implements transport.OutboundFlusher: the engine's
// DrainAck fence relies on it reaching a coalescing transport.
func (e *traceEndpoint) FlushOutbound() { transport.FlushOutbound(e.inner) }

// Send implements transport.Endpoint, recording the send span and
// queueing the message's record for its handler.
func (e *traceEndpoint) Send(to partition.NodeID, msg proto.Message) error {
	n := e.net
	from := e.inner.Node()
	rec := &msgRec{from: from, to: to, typ: transport.MsgType(msg), epoch: relocationEpoch(msg)}
	p := n.pair(from, to)
	p.send.Lock()
	p.mu.Lock()
	p.q = append(p.q, rec)
	p.mu.Unlock()
	if n.onSend != nil {
		n.onSend(rec, msg)
	}
	start := n.now()
	rec.sendStart.Store(start)
	err := e.inner.Send(to, msg)
	end := n.now()
	rec.sendEnd.Store(end)
	if err != nil {
		rec.failed.Store(true)
		p.mu.Lock()
		if k := len(p.q); k > 0 && p.q[k-1] == rec {
			p.q[k-1] = nil
			p.q = p.q[:k-1]
		}
		p.mu.Unlock()
	}
	p.send.Unlock()
	n.mu.Lock()
	n.recs = append(n.recs, rec)
	n.spans = append(n.spans, span{node: from, peer: to, kind: spanSend, typ: rec.typ, tick: tickKind(msg), start: start, end: end, rec: rec})
	n.mu.Unlock()
	return err
}

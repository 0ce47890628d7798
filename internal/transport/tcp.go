package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/partition"
	"repro/internal/proto"
)

// maxFrameSize rejects absurd frames before allocating for them (a state
// transfer of an entire engine fits comfortably below this).
const maxFrameSize = 1 << 30

// Wire-format constants (PROTOCOL.md "Wire format").
//
// A dialing endpoint opens every connection with a preamble whose first
// four bytes, read as a little-endian uint32 by a pre-negotiation
// receiver, exceed maxFrameSize: an old binary rejects the "frame" and
// hangs up, which the dialer detects as a failed hello and falls back
// to the legacy untagged-gob framing.
var preambleMagic = [4]byte{'D', 'Q', 'W', 0xF1}

// ackMagic opens the receiver's hello reply, distinguishing it from
// stray bytes on a half-configured socket.
var ackMagic = [2]byte{0xD9, 'Q'}

// wireVersion is the preamble/ack protocol version.
const wireVersion = 1

// flagNative marks a dialer that can speak the native data-plane codec.
const flagNative = 0x01

// Frame kind tags on negotiated connections. Native data-plane kinds
// 1..4 are byte(proto.WireKind); frameGob wraps any message in a gob
// envelope; frameCredit is the transport-internal credit grant.
const (
	frameGob    byte = 0x00
	frameCredit byte = 0x7F
)

// wireCodec is a connection's negotiated framing.
type wireCodec uint8

const (
	// codecLegacy frames are untagged [len][gob envelope] — the
	// pre-negotiation wire format, kept as the compatibility fallback.
	codecLegacy wireCodec = iota
	// codecGob frames are tagged but every message rides a gob envelope.
	codecGob
	// codecNative frames carry data-plane messages in the proto wire
	// codec; control messages still ride tagged gob envelopes.
	codecNative
)

// WireMode selects how a TCP network's endpoints negotiate framing.
// It exists for mixed-version tests and for measuring the gob baseline;
// production binaries use the default WireAuto. Set it before Attach.
type WireMode int

const (
	// WireAuto offers the native codec at hello and falls back to
	// tagged gob (new peer that declined) or legacy framing (old peer).
	WireAuto WireMode = iota
	// WireGob negotiates but never offers or chooses the native codec:
	// the data plane stays on gob envelopes (credit is disabled, since
	// credit accounting is part of the native path).
	WireGob
	// WireLegacy behaves exactly like a pre-negotiation binary: no
	// preamble on dial, and inbound preambles are rejected as oversized
	// frames. Mixed-version tests use it to stand in for an old peer.
	WireLegacy
)

// Credit grants byte credits for the data path: the receiver's
// dispatcher sends one after its handler has consumed roughly half the
// advertised window, letting the sender's blocked Data/ResultData
// sends proceed. Transport-internal: the receiving endpoint's read
// loop applies grants directly and never delivers them to handlers.
type Credit struct {
	Bytes uint64
}

func init() {
	gob.Register(Credit{})
}

const (
	// defaultCreditWindow is the per-(sender,receiver) byte window
	// advertised at hello. ~256 default-sized tuple batches may be in
	// flight before a sender blocks.
	defaultCreditWindow = 4 << 20
	// defaultCreditTimeout bounds how long a data-path Send blocks
	// waiting for credit before reporting the receiver unreachable
	// (the split router then parks the batch exactly as it does for a
	// dead connection).
	defaultCreditTimeout = 15 * time.Second
	// handshakeTimeout bounds the dialer's wait for the hello ack; an
	// old peer never answers (it hangs up on the preamble), so this is
	// the mixed-version fallback latency ceiling.
	handshakeTimeout = 3 * time.Second
	// coalesceWatermark flushes a connection once this many coalesced
	// bytes are buffered, bounding data-path latency under load.
	coalesceWatermark = 32 << 10
	// flushInterval is the paced flush tick for coalesced small frames:
	// the syscall amortization window when the watermark is not hit.
	flushInterval = time.Millisecond
	// connWriterSize is each connection's bufio.Writer capacity — the
	// coalescing buffer itself.
	connWriterSize = 1 << 16
	// encScratchMax caps how much encode scratch a connection keeps
	// between frames; a multi-megabyte state transfer would otherwise
	// pin its peak forever.
	encScratchMax = 1 << 20
)

// tcpEnvelope is the gob-encoded wire form of one non-native message.
type tcpEnvelope struct {
	From partition.NodeID
	Msg  proto.Message
}

// TCP is a Network whose nodes listen on real TCP sockets. A static
// directory maps node IDs to addresses (the experiment binaries pass
// localhost ports). Outgoing connections are established lazily and
// cached; each (sender, receiver) pair uses one connection, giving FIFO
// delivery per pair. Each receiving node dispatches inbound frames from
// all connections through a single queue, so its handler runs serially.
//
// Framing is negotiated per connection at hello (see PROTOCOL.md "Wire
// format"): both peers new → tagged frames with the native data-plane
// codec and credit-based backpressure; old peer on either side →
// legacy untagged gob frames, indistinguishable from the old binary.
type TCP struct {
	mu            sync.RWMutex
	directory     map[partition.NodeID]string
	metrics       map[partition.NodeID]*Metrics
	endpoints     []*tcpEndpoint
	closed        bool
	wireMode      WireMode
	creditWindow  int64
	creditTimeout time.Duration
}

// NewTCP returns a TCP network with the given node directory.
func NewTCP(directory map[partition.NodeID]string) *TCP {
	dir := make(map[partition.NodeID]string, len(directory))
	for k, v := range directory {
		dir[k] = v
	}
	return &TCP{
		directory:     dir,
		metrics:       make(map[partition.NodeID]*Metrics),
		creditWindow:  defaultCreditWindow,
		creditTimeout: defaultCreditTimeout,
	}
}

// SetWireMode selects the framing negotiation policy for endpoints of
// this network. Call before Attach.
func (n *TCP) SetWireMode(m WireMode) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.wireMode = m
}

// SetCreditWindow overrides the advertised data-path credit window in
// bytes (0 disables credit). Call before Attach.
func (n *TCP) SetCreditWindow(bytes int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.creditWindow = bytes
}

// SetCreditTimeout overrides how long a data-path Send may block
// waiting for credit. Call before Attach.
func (n *TCP) SetCreditTimeout(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.creditTimeout = d
}

func (n *TCP) wireModeOf() WireMode {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.wireMode
}

func (n *TCP) creditWindowOf() int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.creditWindow
}

func (n *TCP) creditTimeoutOf() time.Duration {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.creditTimeout
}

// Instrument implements Instrumentable: future Attach(node, ...) records
// transport metrics for node into m.
func (n *TCP) Instrument(node partition.NodeID, m *Metrics) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.metrics[node] = m
}

// AddNode extends the directory (e.g. after binding an ephemeral port).
func (n *TCP) AddNode(node partition.NodeID, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.directory[node] = addr
}

// Addr reports the directory address of node.
func (n *TCP) Addr(node partition.NodeID) (string, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	a, ok := n.directory[node]
	return a, ok
}

// senderCredit is one destination's data-path byte window on the
// sending side: consumed before each Data/ResultData frame, refilled
// by the receiver's Credit grants.
type senderCredit struct {
	mu    sync.Mutex
	avail int64
	// wake (capacity 1) is poked on every grant so blocked consumers
	// recheck; consume re-pokes it when credit remains, cascading the
	// wakeup to other waiters.
	wake chan struct{}
}

func newSenderCredit(window int64) *senderCredit {
	return &senderCredit{avail: window, wake: make(chan struct{}, 1)}
}

func (s *senderCredit) grant(n int64) {
	s.mu.Lock()
	s.avail += n
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// consume blocks until the window has room for n more bytes (one frame
// may overdraw the window, so a frame larger than the whole window
// still makes progress). onBlock fires once, when the caller first has
// to wait — before the wait, so the blocked state is observable while
// it lasts. stop aborts the wait when the endpoint closes.
func (s *senderCredit) consume(n int64, timeout time.Duration, stop <-chan struct{}, onBlock func()) error {
	deadline := time.Now().Add(timeout)
	blocked := false
	s.mu.Lock()
	for s.avail <= 0 {
		s.mu.Unlock()
		if !blocked {
			blocked = true
			if onBlock != nil {
				onBlock()
			}
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return errors.New("credit window exhausted: receiver granted nothing within the timeout")
		}
		t := time.NewTimer(remain)
		select {
		case <-s.wake:
			t.Stop()
		case <-t.C:
			return errors.New("credit window exhausted: receiver granted nothing within the timeout")
		case <-stop:
			t.Stop()
			return errors.New("endpoint closed")
		}
		s.mu.Lock()
	}
	s.avail -= n
	if s.avail > 0 {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
	s.mu.Unlock()
	return nil
}

// recvCredit is one inbound peer's grant bookkeeping on the receiving
// side: bytes consumed by the handler since the last grant.
type recvCredit struct {
	window   int64
	consumed int64
}

type tcpEndpoint struct {
	net      *TCP
	node     partition.NodeID
	listener net.Listener
	queue    chan envelope
	done     chan struct{}
	// stop is closed on Close: it fences the flusher goroutine and
	// wakes credit waiters so no Send blocks across shutdown.
	stop     chan struct{}
	stopOnce sync.Once
	metrics  *Metrics

	// enqMu guards queue against close-during-enqueue: reader goroutines
	// hold the read lock while enqueueing, Close takes the write lock to
	// flip down before closing the channel.
	enqMu sync.RWMutex

	mu    sync.Mutex
	conns map[partition.NodeID]*tcpConn
	// legacy records peers that failed the hello (old binaries): later
	// redials skip the preamble and go straight to legacy framing.
	legacy map[partition.NodeID]bool
	down   bool

	// recvMu guards the receiving-side grant bookkeeping, keyed by the
	// peer named in the connection's preamble.
	recvMu sync.Mutex
	recv   map[partition.NodeID]*recvCredit
}

type tcpConn struct {
	mu    sync.Mutex
	c     net.Conn
	w     *bufio.Writer
	codec wireCodec
	// credit is the destination's data-path window (nil when the peer
	// advertised none — gob/legacy connections, or credit disabled).
	credit *senderCredit
	// dirty marks coalesced frames awaiting the paced flush.
	dirty bool
	// enc is the connection's native-frame encode scratch: the pooled
	// frame buffer data-plane payloads are appended into via AppendWire,
	// reused frame to frame under mu (trimmed back to encScratchMax
	// after oversized frames).
	enc []byte
}

// Attach implements Network. The node must be present in the directory;
// an address of ":0" binds an ephemeral port that is written back to the
// directory.
func (n *TCP) Attach(node partition.NodeID, h Handler) (Endpoint, error) {
	if h == nil {
		return nil, fmt.Errorf("transport: nil handler for %s", node)
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, fmt.Errorf("transport: network closed")
	}
	addr, ok := n.directory[node]
	metrics := n.metrics[node]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: node %s not in directory", node)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	n.AddNode(node, l.Addr().String())
	ep := &tcpEndpoint{
		net:      n,
		node:     node,
		listener: l,
		queue:    make(chan envelope, inprocQueueDepth),
		done:     make(chan struct{}),
		stop:     make(chan struct{}),
		conns:    make(map[partition.NodeID]*tcpConn),
		legacy:   make(map[partition.NodeID]bool),
		recv:     make(map[partition.NodeID]*recvCredit),
		metrics:  metrics,
	}
	n.mu.Lock()
	n.endpoints = append(n.endpoints, ep)
	n.mu.Unlock()
	go ep.acceptLoop()
	go ep.flushLoop()
	go func() {
		for env := range ep.queue {
			ep.metrics.received(env.msg, env.size)
			h(env.from, env.msg)
			// The handler has returned, so its slab copies are done and
			// the frame buffer's lifecycle ends here (PROTOCOL.md buffer
			// ownership); consumed data-path bytes turn into grants.
			if env.buf != nil {
				releaseReadBuf(env.buf)
			}
			if env.credited {
				ep.noteConsumed(env.from, env.size)
			}
		}
		close(ep.done)
	}()
	return ep, nil
}

// Close implements Network.
func (n *TCP) Close() error {
	n.mu.Lock()
	eps := append([]*tcpEndpoint(nil), n.endpoints...)
	n.closed = true
	n.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
	return nil
}

func (e *tcpEndpoint) acceptLoop() {
	for {
		c, err := e.listener.Accept()
		if err != nil {
			return // listener closed
		}
		go e.readLoop(c)
	}
}

// readLoop serves one inbound connection. The first four bytes decide
// its era: the hello preamble's magic starts negotiation; anything else
// is a legacy frame length from an old peer.
func (e *tcpEndpoint) readLoop(c net.Conn) {
	defer c.Close()
	r := bufio.NewReaderSize(c, 1<<16)
	var first [4]byte
	if _, err := io.ReadFull(r, first[:]); err != nil {
		return
	}
	if first == preambleMagic && e.net.wireModeOf() != WireLegacy {
		e.negotiatedLoop(c, r)
		return
	}
	e.legacyLoop(r, first)
}

// legacyLoop reads untagged [len][gob envelope] frames, the wire format
// of pre-negotiation binaries. first holds the already-consumed length
// prefix of the first frame. (In WireLegacy mode an inbound preamble
// also lands here: its magic reads as an oversized length and the
// connection is dropped, exactly what an old binary does.)
func (e *tcpEndpoint) legacyLoop(r *bufio.Reader, first [4]byte) {
	lenBuf := first
	for {
		size := binary.LittleEndian.Uint32(lenBuf[:])
		if size > maxFrameSize {
			return
		}
		bp, body := takeReadBuf(int(size))
		if _, err := io.ReadFull(r, body); err != nil {
			releaseReadBuf(bp)
			return
		}
		var env tcpEnvelope
		err := gob.NewDecoder(bytes.NewReader(body)).Decode(&env)
		// gob copies everything out of body, so the buffer recycles
		// before the envelope is even enqueued.
		releaseReadBuf(bp)
		if err != nil {
			return
		}
		if cg, ok := env.Msg.(Credit); ok {
			e.applyGrant(env.From, int64(cg.Bytes))
		} else if !e.deliver(envelope{from: env.From, msg: env.Msg, size: 4 + int(size)}) {
			return
		}
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return
		}
	}
}

// negotiatedLoop finishes the hello (preamble body + ack) and then
// reads tagged frames: [len u32][kind u8][body], where len covers kind
// and body.
func (e *tcpEndpoint) negotiatedLoop(c net.Conn, r *bufio.Reader) {
	// Preamble body: version(1) flags(1) idlen(2) id.
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return
	}
	version, flags := hdr[0], hdr[1]
	idLen := int(binary.LittleEndian.Uint16(hdr[2:]))
	if version == 0 || idLen == 0 || idLen > 256 {
		return
	}
	idBuf := make([]byte, idLen)
	if _, err := io.ReadFull(r, idBuf); err != nil {
		return
	}
	peer := partition.NodeID(idBuf)

	native := flags&flagNative != 0 && e.net.wireModeOf() == WireAuto
	var window int64
	codecByte := byte(0)
	if native {
		codecByte = 1
		window = e.net.creditWindowOf()
		if window < 0 {
			window = 0
		}
	}
	// Ack: magic(2) version(1) codec(1) creditWindow(4). The receiver
	// never writes on this connection again, so no lock is needed.
	var ack [8]byte
	copy(ack[:], ackMagic[:])
	ack[2] = wireVersion
	ack[3] = codecByte
	binary.LittleEndian.PutUint32(ack[4:], uint32(window))
	if _, err := c.Write(ack[:]); err != nil {
		return
	}
	if window > 0 {
		// Register (or refresh, after a redial) the peer's grant
		// bookkeeping. Entries persist for the endpoint's lifetime —
		// a stale one for a vanished peer simply never accrues.
		e.recvMu.Lock()
		e.recv[peer] = &recvCredit{window: window}
		e.recvMu.Unlock()
	}

	for {
		var lenBuf [4]byte
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return
		}
		size := binary.LittleEndian.Uint32(lenBuf[:])
		if size == 0 || size > maxFrameSize {
			return
		}
		bp, body := takeReadBuf(int(size))
		if _, err := io.ReadFull(r, body); err != nil {
			releaseReadBuf(bp)
			return
		}
		kind, payload := body[0], body[1:]
		frameBytes := 4 + int(size)
		switch kind {
		case frameCredit:
			if len(payload) != 8 {
				releaseReadBuf(bp)
				return
			}
			e.applyGrant(peer, int64(binary.LittleEndian.Uint64(payload)))
			releaseReadBuf(bp)
		case frameGob:
			var env tcpEnvelope
			err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&env)
			releaseReadBuf(bp)
			if err != nil {
				return
			}
			if cg, ok := env.Msg.(Credit); ok {
				e.applyGrant(env.From, int64(cg.Bytes))
			} else if !e.deliver(envelope{from: env.From, msg: env.Msg, size: frameBytes}) {
				return
			}
		default:
			msg, err := proto.DecodeWire(proto.WireKind(kind), payload)
			if err != nil {
				releaseReadBuf(bp)
				return
			}
			// The message's payload slices alias the frame buffer; the
			// dispatcher recycles it after the handler returns.
			env := envelope{from: peer, msg: msg, size: frameBytes, buf: bp}
			env.credited = kind == byte(proto.WireData) || kind == byte(proto.WireResultData)
			if !e.deliver(env) {
				releaseReadBuf(bp)
				return
			}
		}
	}
}

// deliver enqueues one inbound envelope unless the endpoint is closing,
// reporting whether it was accepted.
func (e *tcpEndpoint) deliver(env envelope) bool {
	e.enqMu.RLock()
	e.mu.Lock()
	down := e.down
	e.mu.Unlock()
	if down {
		e.enqMu.RUnlock()
		return false
	}
	e.queue <- env
	e.enqMu.RUnlock()
	return true
}

// applyGrant credits a destination's window with bytes granted by the
// peer and records the grant.
func (e *tcpEndpoint) applyGrant(from partition.NodeID, n int64) {
	if n <= 0 {
		return
	}
	e.mu.Lock()
	c := e.conns[from]
	e.mu.Unlock()
	if c == nil || c.credit == nil {
		// The granted connection was dropped (redial resets the window
		// from the fresh ack), or never consumed credit.
		return
	}
	c.credit.grant(n)
	e.metrics.creditGranted(from, n)
}

// noteConsumed runs on the dispatcher after the handler finished one
// credited data-path frame: once half the advertised window has been
// consumed, the freed bytes are granted back to the sender.
func (e *tcpEndpoint) noteConsumed(from partition.NodeID, frameBytes int) {
	e.recvMu.Lock()
	rc := e.recv[from]
	var grant int64
	if rc != nil {
		rc.consumed += int64(frameBytes)
		if rc.consumed >= rc.window/2 {
			grant = rc.consumed
			rc.consumed = 0
		}
	}
	e.recvMu.Unlock()
	if grant == 0 {
		return
	}
	if err := e.Send(from, Credit{Bytes: uint64(grant)}); err != nil {
		// The sender is unreachable; its connection (and the debt the
		// grant would have repaid) died with it, so the grant is moot.
		return
	}
}

// readBufSizes are the inbound frame buffer size classes. Batches and
// result flushes live in the first two; snapshots and deltas in the
// larger ones. Frames beyond the last class are allocated fresh.
var readBufSizes = [...]int{4 << 10, 64 << 10, 1 << 20, 16 << 20}

// readBufClasses recycles inbound frame bodies, one sync.Pool per size
// class. Ownership protocol (PROTOCOL.md "Wire format"): the read loop
// takes a buffer, the dispatcher hands the decoded message to the
// handler (whose slab copy ends the payload's lifecycle), and the
// dispatcher releases the buffer after the handler returns. Nothing
// may retain the buffer past that point.
var readBufClasses [len(readBufSizes)]sync.Pool

func init() {
	for i := range readBufClasses {
		size := readBufSizes[i]
		readBufClasses[i].New = func() any {
			b := make([]byte, size)
			return &b
		}
	}
}

// takeReadBuf returns a recycled buffer handle and its n-byte view.
// A nil handle means the size exceeded every class and the view is a
// one-off allocation.
func takeReadBuf(n int) (*[]byte, []byte) {
	for i, size := range readBufSizes {
		if n <= size {
			bp := readBufClasses[i].Get().(*[]byte)
			return bp, (*bp)[:n]
		}
	}
	b := make([]byte, n)
	return nil, b
}

// releaseReadBuf recycles a buffer taken with takeReadBuf.
func releaseReadBuf(bp *[]byte) {
	if bp == nil {
		return
	}
	c := cap(*bp)
	for i, size := range readBufSizes {
		if c == size {
			readBufClasses[i].Put(bp)
			return
		}
	}
}

// frameBufPool recycles gob encode buffers across Sends. Pooling is
// safe here because the body is fully copied onto the connection's
// bufio.Writer before the buffer is returned; the in-process transport
// must NOT pool, since it hands message references to the receiver.
var frameBufPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

// Node implements Endpoint.
func (e *tcpEndpoint) Node() partition.NodeID { return e.node }

// creditEligible reports whether a native kind consumes window bytes:
// only the unbounded-volume payloads (tuple batches, result batches).
// Relocation transfers and replication deltas are protocol-paced and
// excluded, so backpressure can never deadlock an adaptation step.
func creditEligible(kind proto.WireKind) bool {
	return kind == proto.WireData || kind == proto.WireResultData
}

// Send implements Endpoint.
func (e *tcpEndpoint) Send(to partition.NodeID, msg proto.Message) error {
	var start time.Time
	if e.metrics != nil {
		start = time.Now()
	}
	if to == e.node {
		return e.sendSelf(msg, start)
	}
	conn, err := e.conn(to)
	if err != nil {
		return err
	}
	kind := proto.WireKindOf(msg)
	if conn.credit != nil && creditEligible(kind) {
		// Charge exactly the framed size the receiver will count.
		need := int64(4 + 1 + proto.WireSize(msg))
		err := conn.credit.consume(need, e.net.creditTimeoutOf(), e.stop,
			func() { e.metrics.creditBlocked(to) })
		if err != nil {
			return fmt.Errorf("transport: send to %s: %w", to, err)
		}
	}
	conn.mu.Lock()
	frameBytes, err := conn.writeFrame(e.node, msg, kind)
	conn.mu.Unlock()
	if err != nil {
		// Drop the broken connection so a retry can redial.
		e.mu.Lock()
		if e.conns[to] == conn {
			delete(e.conns, to)
		}
		e.mu.Unlock()
		conn.c.Close()
		return fmt.Errorf("transport: send to %s: %w", to, err)
	}
	if e.metrics != nil {
		e.metrics.sent(msg, frameBytes, time.Since(start))
	}
	return nil
}

// sendSelf delivers a self-addressed message (timer Ticks, relocation
// timeouts) straight into the endpoint's own queue, with the in-process
// transport's semantics: by reference, FIFO, blocking while the queue is
// full, and an error once the endpoint is down. No socket, codec or
// credit is involved.
func (e *tcpEndpoint) sendSelf(msg proto.Message, start time.Time) error {
	size := 0
	if e.metrics != nil {
		size = approxSize(msg)
	}
	if !e.deliver(envelope{from: e.node, msg: msg, size: size}) {
		return fmt.Errorf("transport: send to %s: endpoint closed", e.node)
	}
	if e.metrics != nil {
		e.metrics.sent(msg, size, time.Since(start))
	}
	return nil
}

// writeFrame encodes one message under the connection's codec,
// reporting its exact wire size (length prefix + tag + body). The
// caller holds c.mu. Small data-plane frames coalesce in the bufio
// writer until the watermark or the paced flush; everything else —
// control messages, credit grants, state transfers — flushes
// immediately (pushing any coalesced frames ahead of it, so per-
// connection FIFO order is preserved).
func (c *tcpConn) writeFrame(from partition.NodeID, msg proto.Message, kind proto.WireKind) (int, error) {
	coalesce := false
	var frameBytes int
	switch {
	case c.codec == codecNative && kind != proto.WireNone:
		body := proto.WireSize(msg)
		if body+1 > maxFrameSize {
			return 0, fmt.Errorf("native frame of %d bytes exceeds limit", body+1)
		}
		b := c.enc[:0]
		b = binary.LittleEndian.AppendUint32(b, uint32(body+1))
		b = append(b, byte(kind))
		b = proto.AppendWire(b, msg)
		c.enc = b
		frameBytes = len(b)
		if _, err := c.w.Write(b); err != nil {
			return 0, err
		}
		if cap(c.enc) > encScratchMax {
			c.enc = nil
		}
		// State transfers gate relocation steps; only the steady-flow
		// payloads are worth trading latency for syscalls.
		coalesce = kind != proto.WireStateTransfer
	case c.codec != codecLegacy && isCreditMsg(msg):
		cg := msg.(Credit)
		var b [13]byte
		binary.LittleEndian.PutUint32(b[:], 9)
		b[4] = frameCredit
		binary.LittleEndian.PutUint64(b[5:], cg.Bytes)
		frameBytes = len(b)
		if _, err := c.w.Write(b[:]); err != nil {
			return 0, err
		}
	default:
		body := frameBufPool.Get().(*bytes.Buffer)
		body.Reset()
		defer frameBufPool.Put(body)
		if err := gob.NewEncoder(body).Encode(&tcpEnvelope{From: from, Msg: msg}); err != nil {
			return 0, fmt.Errorf("encode frame: %w", err)
		}
		tag := 0
		if c.codec != codecLegacy {
			tag = 1
		}
		if body.Len()+tag > maxFrameSize {
			return 0, fmt.Errorf("gob frame of %d bytes exceeds limit", body.Len()+tag)
		}
		var hdr [5]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(body.Len()+tag))
		hdr[4] = frameGob
		if _, err := c.w.Write(hdr[:4+tag]); err != nil {
			return 0, err
		}
		if _, err := c.w.Write(body.Bytes()); err != nil {
			return 0, err
		}
		frameBytes = 4 + tag + body.Len()
	}
	if coalesce {
		c.dirty = true
		if c.w.Buffered() >= coalesceWatermark {
			c.dirty = false
			return frameBytes, c.w.Flush()
		}
		return frameBytes, nil
	}
	c.dirty = false
	return frameBytes, c.w.Flush()
}

func isCreditMsg(msg proto.Message) bool {
	_, ok := msg.(Credit)
	return ok
}

// flushLoop is the paced flush for coalesced frames: small data-plane
// writes that never reached the watermark hit the wire within
// flushInterval.
func (e *tcpEndpoint) flushLoop() {
	t := time.NewTicker(flushInterval)
	defer t.Stop()
	var scratch []*tcpConn
	for {
		select {
		case <-e.stop:
			return
		case <-t.C:
			scratch = e.flushDirty(scratch[:0])
		}
	}
}

// flushDirty flushes every connection holding coalesced frames. Flush
// errors are left for the next Send to observe (bufio errors are
// sticky), which drops and redials the connection.
func (e *tcpEndpoint) flushDirty(scratch []*tcpConn) []*tcpConn {
	e.mu.Lock()
	for _, c := range e.conns {
		scratch = append(scratch, c)
	}
	e.mu.Unlock()
	for _, c := range scratch {
		c.mu.Lock()
		if c.dirty {
			c.dirty = false
			// A flush error is sticky in the bufio.Writer; the next Send
			// observes it and drops the connection for redial.
			_ = c.w.Flush()
		}
		c.mu.Unlock()
	}
	return scratch
}

// FlushOutbound pushes every coalesced frame to the wire before
// returning. Fence points (an engine acknowledging a Drain) call it so
// "acked" implies "prior data-path frames are on the wire", even
// across different destination connections.
func (e *tcpEndpoint) FlushOutbound() {
	e.flushDirty(nil)
}

func (e *tcpEndpoint) conn(to partition.NodeID) (*tcpConn, error) {
	e.mu.Lock()
	if e.down {
		e.mu.Unlock()
		return nil, errors.New("transport: endpoint closed")
	}
	if c, ok := e.conns[to]; ok {
		e.mu.Unlock()
		return c, nil
	}
	legacyPeer := e.legacy[to]
	e.mu.Unlock()

	addr, ok := e.net.Addr(to)
	if !ok {
		return nil, fmt.Errorf("transport: unknown node %s", to)
	}
	mode := e.net.wireModeOf()
	c, err := e.dial(addr, mode, legacyPeer)
	if err == errLegacyPeer {
		// The peer hung up on the hello: an old binary. Remember and
		// redial with legacy framing.
		e.mu.Lock()
		e.legacy[to] = true
		e.mu.Unlock()
		c, err = e.dial(addr, mode, true)
	}
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s (%s): %w", to, addr, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.down {
		c.c.Close()
		return nil, errors.New("transport: endpoint closed")
	}
	if existing, ok := e.conns[to]; ok {
		c.c.Close() // lost the race; reuse the winner
		return existing, nil
	}
	e.conns[to] = c
	return c, nil
}

// errLegacyPeer reports a failed hello: the peer rejected the preamble
// (or answered garbage), so it predates negotiation.
var errLegacyPeer = errors.New("transport: peer rejected hello")

// dial opens and (unless legacy) negotiates one connection.
func (e *tcpEndpoint) dial(addr string, mode WireMode, legacyPeer bool) (*tcpConn, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if mode == WireLegacy || legacyPeer {
		return &tcpConn{c: raw, w: bufio.NewWriterSize(raw, connWriterSize), codec: codecLegacy}, nil
	}

	flags := byte(0)
	if mode == WireAuto {
		flags |= flagNative
	}
	id := string(e.node)
	if len(id) > 256 {
		raw.Close()
		return nil, fmt.Errorf("node id %q too long for hello", id)
	}
	pre := make([]byte, 0, 8+len(id))
	pre = append(pre, preambleMagic[:]...)
	pre = append(pre, wireVersion, flags)
	pre = binary.LittleEndian.AppendUint16(pre, uint16(len(id)))
	pre = append(pre, id...)
	if _, err := raw.Write(pre); err != nil {
		raw.Close()
		return nil, errLegacyPeer
	}
	raw.SetReadDeadline(time.Now().Add(handshakeTimeout))
	var ack [8]byte
	if _, err := io.ReadFull(raw, ack[:]); err != nil || ack[0] != ackMagic[0] || ack[1] != ackMagic[1] {
		raw.Close()
		return nil, errLegacyPeer
	}
	raw.SetReadDeadline(time.Time{})
	codec := codecGob
	var credit *senderCredit
	if ack[3] == 1 {
		codec = codecNative
		if window := int64(binary.LittleEndian.Uint32(ack[4:])); window > 0 {
			credit = newSenderCredit(window)
		}
	}
	return &tcpConn{c: raw, w: bufio.NewWriterSize(raw, connWriterSize), codec: codec, credit: credit}, nil
}

// Codec reports the negotiated codec name of the cached connection to
// a peer ("", "legacy", "gob", or "native"), for tests and diagnostics.
func (e *tcpEndpoint) Codec(to partition.NodeID) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	c, ok := e.conns[to]
	if !ok {
		return ""
	}
	switch c.codec {
	case codecGob:
		return "gob"
	case codecNative:
		return "native"
	default:
		return "legacy"
	}
}

// Close implements Endpoint.
func (e *tcpEndpoint) Close() error {
	e.mu.Lock()
	if e.down {
		e.mu.Unlock()
		return nil
	}
	e.down = true
	conns := make([]*tcpConn, 0, len(e.conns))
	for _, c := range e.conns {
		conns = append(conns, c)
	}
	e.conns = map[partition.NodeID]*tcpConn{}
	e.mu.Unlock()

	// Fence the flusher and wake blocked credit waiters first, then
	// push out any coalesced frames before tearing the sockets down.
	e.stopOnce.Do(func() { close(e.stop) })
	e.listener.Close()
	for _, c := range conns {
		c.mu.Lock()
		if c.dirty {
			c.dirty = false
			_ = c.w.Flush() // best-effort final flush on shutdown
		}
		c.mu.Unlock()
		c.c.Close()
	}
	// Block new enqueues (readers observe down under enqMu), then close.
	// The dispatcher drains what is already queued — releasing frame
	// buffers as usual — before signalling done.
	e.enqMu.Lock()
	e.enqMu.Unlock()
	close(e.queue)
	<-e.done
	return nil
}

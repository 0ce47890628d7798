// Package engine implements a query engine (QE): one cluster machine
// executing an instance of the partitioned m-way join, together with its
// local adaptation controller (paper §2). The controller owns the
// fine-grained decisions: which partition groups to spill on local memory
// overflow (ss_timer), which groups to hand over when the coordinator
// requests a relocation (cptv), and the engine side of the 8-step
// relocation protocol.
//
// The engine is event-driven: every input — data batches, control
// messages, and its own timers (self-addressed Tick messages) — arrives
// through the transport's serial handler, so the engine never needs
// internal locking, mirroring a single query processor thread per machine.
package engine

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cleanup"
	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/operator"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/spill"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// resultFlushThreshold caps one ResultData message: a producer whose
// buffer reaches it ships early instead of waiting for the end of its
// unit of work (see resultBuf).
const resultFlushThreshold = 4096

// Config parameterizes a query engine.
type Config struct {
	Node        partition.NodeID
	Coordinator partition.NodeID
	AppServer   partition.NodeID
	// Inputs is the number of join inputs (m).
	Inputs int
	// Partitions is the partition function's modulus.
	Partitions int
	// Spill holds the local overflow threshold and k% fraction.
	Spill core.SpillConfig
	// LocalSpill enables the ss_timer overflow check. Disabled for the
	// paper's All-Mem baseline.
	LocalSpill bool
	// Policy selects spill victims (default: less-productive).
	Policy core.Policy
	// Store persists spilled segments (default: in-memory).
	Store spill.Store
	// StandbyStore persists the disk tier of replicated standby state:
	// when a primary spills a replicated group, this engine (as the
	// group's follower) demotes the matching standby fraction here
	// instead of holding it in memory. Kept separate from Store because
	// cleanup runs over every Store group — standby segments in it would
	// duplicate results the primary already emitted. Default: in-memory.
	StandbyStore spill.Store
	// Materialize makes the engine ship full results to the application
	// server instead of counts.
	Materialize bool
	// EnumerateResults makes the engine enumerate every result tuple
	// without shipping it — the realistic cost model (results are
	// produced and handed to a local consumer) without drowning the
	// application server, used by the throughput experiments whose
	// cleanup durations the paper reports.
	EnumerateResults bool
	// StatsInterval is the sr_timer period (virtual).
	StatsInterval time.Duration
	// SpillCheckInterval is the ss_timer period (virtual).
	SpillCheckInterval time.Duration
	// PreFilter, when set, is a stateless operator chain (select/
	// project) applied to every arriving tuple before it enters the
	// join's state — the paper's stateless operators sitting in front
	// of the partitioned operator.
	PreFilter operator.Operator
	// Window, when positive, runs the join with a sliding time window
	// (virtual): arriving tuples only match stored tuples within Window
	// of their timestamp, and expired state is purged on every stats
	// tick — the paper's infinite-streams-with-finite-windows case.
	Window time.Duration
	// CheckpointDir, when set, enables the Checkpoint message and the
	// Restore path: the engine persists its resident operator state
	// there on request and reloads the latest generation on Restore.
	CheckpointDir string
	// SmoothingAlpha, when positive, switches the local controller to
	// the paper's amortized productivity model (§2): an exponentially
	// weighted moving average over per-period Δoutput/Δbytes, updated on
	// every sr_timer expiry, drives victim and mover selection instead
	// of the lifetime ratio. Ignored when an explicit Policy is set for
	// spills (the movers still use the smoothed scores).
	SmoothingAlpha float64
	// CleanupParallelism bounds the disk-phase cleanup worker pool
	// (groups merged concurrently). Zero or negative means GOMAXPROCS.
	// The cleanup result set is identical at any setting; see
	// cleanup.Options.
	CleanupParallelism int
	// GroupMetrics, when positive, exports per-group tracker statistics
	// (resident bytes, lifetime bytes, output, productivity rank) as
	// labeled gauges for the top GroupMetrics most productive groups on
	// every sr_timer. Off by default: per-group series are for targeted
	// diagnosis, not always-on fleets.
	GroupMetrics int
	// DynamicJoin makes the engine introduce itself with a JoinRequest
	// (retried with jittered backoff until the coordinator's JoinAck
	// arrives) instead of the informational Hello: the engine was not in
	// the coordinator's static configuration and asks to be admitted
	// into the running cluster.
	DynamicJoin bool
	// Addr is the engine's advertised transport address, carried on the
	// JoinRequest so the coordinator can extend directory-based
	// transports (TCP) and disseminate it to the split host and peers
	// via MemberAddr. Leave empty on registration-based transports
	// (in-proc), where no directory exists.
	Addr string
	// JoinParallelism sizes the shard-worker pool of the run-time join
	// path: partition groups are assigned to shards by partition ID mod
	// JoinParallelism (stable, so a group's tuples stay FIFO within
	// their shard) and each shard is driven by its own worker. Control
	// messages quiesce the pool before touching operator state, so the
	// result set is identical at any setting. Zero or 1 keeps the
	// historical serial path.
	JoinParallelism int
}

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.Inputs < 2 {
		return out, fmt.Errorf("engine %s: need at least 2 join inputs, got %d", out.Node, out.Inputs)
	}
	if out.Partitions < 1 {
		return out, fmt.Errorf("engine %s: need at least 1 partition, got %d", out.Node, out.Partitions)
	}
	if out.Policy == nil {
		out.Policy = core.LessProductivePolicy{}
	}
	if out.Store == nil {
		out.Store = spill.NewMemStore()
	}
	if out.StandbyStore == nil {
		out.StandbyStore = spill.NewMemStore()
	}
	if out.StatsInterval <= 0 {
		out.StatsInterval = 5 * time.Second
	}
	if out.SpillCheckInterval <= 0 {
		out.SpillCheckInterval = 2 * time.Second
	}
	if out.JoinParallelism < 1 {
		out.JoinParallelism = 1
	}
	return out, nil
}

// Engine is one query engine instance. All methods except Start/Stop are
// invoked from the transport handler goroutine.
type Engine struct {
	cfg   Config
	clock vclock.Clock
	ep    transport.Endpoint
	net   transport.Network
	op    *join.Operator
	// pf is the partition function, shared with the operator: the
	// replication data-path hook needs each tuple's group ID.
	pf partition.Func
	// repl is the replication controller (primary and follower sides).
	// Always present — whether it does anything is decided by the
	// coordinator's ReplicaMap broadcasts, not engine configuration.
	repl *replicator
	// pool drives the operator's shards concurrently when
	// JoinParallelism > 1; nil on the serial path.
	pool *shardPool
	mgr  *spill.Manager
	mode core.Mode

	events  *stats.EventLog
	tracker *core.ProductivityTracker

	reg    *obs.Registry
	tracer *obs.Tracer
	log    *obs.Logger
	// gaugedGroups tracks which groups currently carry per-group gauges
	// so series of departed (relocated, purged) groups are zeroed.
	gaugedGroups map[partition.ID]bool

	// pendingReloc tracks the in-flight relocation this engine sends.
	pendingReloc *relocState
	// savedXfer retains the extracted state of the last outbound
	// relocation so a retried SendStates re-ships identical bytes and a
	// RelocAbort can reinstall the state locally. One relocation's
	// encoded state at most; replaced on the next CptV.
	savedXfer *savedTransfer
	// installedEpochs / abortedEpochs make the receiver side of the
	// protocol idempotent under duplicated or late deliveries: an
	// already-installed epoch's duplicate StateTransfer is re-acked
	// without re-installing, and a transfer arriving after its epoch
	// was aborted is discarded. One entry per relocation touching this
	// engine — bounded by the run's adaptation count.
	installedEpochs map[uint64]bool
	abortedEpochs   map[uint64]bool
	// lastForceSeq / lastForceBytes re-acknowledge a duplicated
	// ForceSpill instead of spilling twice.
	lastForceSeq   uint64
	lastForceBytes int64
	// promotedEpochs / demotedEpochs make the failover handlers
	// idempotent under duplicated deliveries, like installedEpochs for
	// relocations.
	promotedEpochs map[uint64]bool
	demotedEpochs  map[uint64]bool
	// joined flips once the coordinator's JoinAck admits a DynamicJoin
	// engine; leftAck flips on LeaveAck. Atomics: both are read by the
	// retry goroutines and external callers.
	joined  atomic.Bool
	leaving atomic.Bool
	leftAck atomic.Bool

	// result accounting. reportedOutput is the count already delivered
	// to the application server; it advances only after a successful
	// send, so a transient send failure retries the delta on the next
	// sr_timer instead of dropping it.
	reportedOutput uint64
	// shardResults holds one run-time result buffer per operator shard
	// (Materialize only): the handler owns shard 0's on the serial path,
	// each shard worker owns its own on the parallel path.
	shardResults []*resultBuf

	tickers []*vclock.Ticker
	stopped bool
	// crashed simulates an abrupt machine failure: the handler discards
	// everything still queued. Set from outside the handler goroutine.
	crashed atomic.Bool
	// done closes when the serial handler has processed Stop (or the
	// engine crashed), fencing post-run state reads without wall-clock
	// sleeps.
	done     chan struct{}
	doneOnce sync.Once

	// lastReport is the most recent statistics snapshot, readable from
	// other goroutines (monitoring endpoints).
	lastReport atomic.Pointer[proto.StatsReport]
}

type relocState struct {
	epoch    uint64
	receiver partition.NodeID
	parts    []partition.ID
}

// savedTransfer is the encoded outbound state transfer of one epoch.
type savedTransfer struct {
	epoch    uint64
	receiver partition.NodeID
	msg      proto.StateTransfer
}

// New builds an engine; Attach must be called before Start. It rejects
// configurations the join cannot run (fewer than 2 inputs or no
// partitions) instead of panicking deep inside the partition function.
func New(cfg Config, clock vclock.Clock) (*Engine, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:             c,
		clock:           clock,
		events:          stats.NewEventLog(),
		reg:             obs.NewRegistry(),
		tracer:          obs.NewTracer(0),
		log:             obs.NewLogger(obs.LoggerConfig{Node: string(c.Node), Kind: "engine", Now: clock.Now}),
		installedEpochs: make(map[uint64]bool),
		abortedEpochs:   make(map[uint64]bool),
		promotedEpochs:  make(map[uint64]bool),
		demotedEpochs:   make(map[uint64]bool),
		done:            make(chan struct{}),
	}
	e.pf = partition.NewFunc(c.Partitions)
	e.repl = newReplicator(e)
	e.reg.Help("distq_engine_spills_total", "spill cycles, by kind (local|forced)")
	e.reg.Help("distq_engine_spill_bytes_total", "bytes moved to disk by spills, by kind")
	e.reg.Help("distq_engine_mem_bytes", "resident state size at the last sr_timer")
	e.reg.Help("distq_engine_groups", "resident partition groups at the last sr_timer")
	e.reg.Help("distq_engine_disk_segments", "disk segments in the store at the last sr_timer")
	e.reg.Help("distq_engine_output_results", "cumulative join results produced")
	e.reg.Help("distq_engine_relocations_out_total", "state transfers shipped to another engine")
	e.reg.Help("distq_engine_relocations_in_total", "state transfers installed from another engine")
	e.reg.Help("distq_engine_cleanup_workers", "worker-pool size of the last cleanup run")
	e.reg.Help("distq_engine_cleanup_groups_total", "partition groups merged during cleanup, by worker")
	e.reg.Help("distq_engine_cleanup_results_total", "missed results produced during cleanup")
	e.reg.Help("distq_engine_cleanup_group_seconds", "wall-clock merge time of one cleanup group")
	e.reg.Help("distq_engine_shard_workers", "join shard-worker pool size (1 = serial data path)")
	e.reg.Help("distq_engine_group_resident_bytes", "resident state size of one partition group (GroupMetrics only)")
	e.reg.Help("distq_engine_group_lifetime_bytes", "lifetime bytes absorbed by one partition group (GroupMetrics only)")
	e.reg.Help("distq_engine_group_output_results", "cumulative results produced by one partition group (GroupMetrics only)")
	e.reg.Help("distq_engine_group_productivity_rank", "productivity rank of one partition group, 1 = most productive (GroupMetrics only)")
	e.reg.Help("distq_engine_shard_tuples_total", "tuples processed by the join shard workers, by shard")
	e.reg.Help("distq_engine_shard_quiesces_total", "control-message barriers that quiesced the shard pool")
	e.reg.Help("distq_engine_deltas_out_total", "replication state deltas sent to followers (including retransmits)")
	e.reg.Help("distq_engine_deltas_in_total", "replication state deltas applied from primaries")
	e.reg.Help("distq_engine_standby_bytes", "warm follower-copy state held outside the operator")
	e.reg.Help("distq_engine_standby_segment_bytes", "standby state re-spilled to the local standby store on primary spill markers")
	e.reg.Help("distq_engine_promotions_total", "follower promotions installed on this engine")
	e.reg.Help("distq_engine_demotions_total", "stale primary copies dropped after a failover")
	if c.SmoothingAlpha > 0 {
		e.tracker = core.NewProductivityTracker(c.SmoothingAlpha)
		if cfg.Policy == nil {
			e.cfg.Policy = core.SmoothedLessProductive{T: e.tracker}
			c = e.cfg
		}
	}
	var emit join.EmitFunc
	if c.EnumerateResults {
		emit = func(tuple.Result) {}
	}
	if c.Window > 0 {
		e.op = join.NewWindowedSharded(c.Inputs, e.pf, c.Window, c.JoinParallelism, emit)
	} else {
		e.op = join.NewSharded(c.Inputs, e.pf, c.JoinParallelism, emit)
	}
	if c.Materialize {
		e.shardResults = make([]*resultBuf, e.op.NumShards())
		for i := range e.shardResults {
			b := &resultBuf{e: e, phase: proto.PhaseRuntime}
			e.shardResults[i] = b
			e.op.Shard(i).SetEmit(b.Emit)
		}
	}
	e.reg.Gauge("distq_engine_shard_workers").Set(float64(c.JoinParallelism))
	if c.JoinParallelism > 1 {
		e.pool = newShardPool(e)
	}
	e.mgr = spill.NewManager(e.op, c.Store, c.Policy)
	// A reopened standby store may hold segments from a previous life;
	// the coordinator re-seeds followers from scratch after a restart,
	// and stale segments would duplicate the re-seeded ones.
	for _, g := range c.StandbyStore.Groups() {
		if _, err := c.StandbyStore.Remove(g); err != nil {
			return nil, fmt.Errorf("engine %s: clear stale standby segments: %w", c.Node, err)
		}
	}
	return e, nil
}

// Attach joins the engine to the network and launches the shard-worker
// pool (data can arrive as soon as the handler is attached).
func (e *Engine) Attach(net transport.Network) error {
	ep, err := net.Attach(e.cfg.Node, e.Handle)
	if err != nil {
		return err
	}
	e.ep = ep
	e.net = net
	if e.pool != nil {
		e.pool.start()
	}
	return nil
}

// Start announces the engine to the coordinator and arms its timers.
// Statically configured engines send the informational Hello, retried
// with jittered backoff if the coordinator is still coming up; a
// DynamicJoin engine instead sends JoinRequest until the coordinator's
// JoinAck admits it.
func (e *Engine) Start() error {
	if e.ep == nil {
		return fmt.Errorf("engine %s: not attached", e.cfg.Node)
	}
	if e.cfg.DynamicJoin {
		req := proto.JoinRequest{Node: e.cfg.Node, Addr: e.cfg.Addr}
		//distqlint:allow senderrcheck: retried below with backoff until JoinAck
		e.ep.Send(e.cfg.Coordinator, req)
		go e.retryBackoff("join_request", func() bool {
			if e.joined.Load() {
				return true
			}
			//distqlint:allow senderrcheck: retried with backoff until JoinAck
			e.ep.Send(e.cfg.Coordinator, req)
			return false
		})
	} else {
		hello := proto.Hello{Node: e.cfg.Node, Kind: proto.KindEngine}
		if err := e.ep.Send(e.cfg.Coordinator, hello); err != nil {
			go e.retryBackoff("hello", func() bool {
				return e.ep.Send(e.cfg.Coordinator, hello) == nil
			})
		}
	}
	e.armTicker(e.cfg.StatsInterval, proto.TickStats)
	if e.cfg.LocalSpill {
		e.armTicker(e.cfg.SpillCheckInterval, proto.TickSpill)
	}
	return nil
}

// retryBackoff re-invokes attempt with jittered exponential backoff
// (base 100ms doubling to a 5s cap, then a uniform draw from
// [0.5, 1.5)× of it) until attempt reports done, the engine shuts
// down, or ~30 attempts pass. The jitter source is seeded from the
// node name and label, keeping runs reproducible while desynchronizing
// a burst of engines retrying against the same recovering coordinator.
func (e *Engine) retryBackoff(label string, attempt func() bool) {
	h := fnv.New64a()
	h.Write([]byte(string(e.cfg.Node) + "/" + label))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	base := 100 * time.Millisecond
	for i := 0; i < 30; i++ {
		d := time.Duration(float64(base) * (0.5 + rng.Float64()))
		select {
		case <-e.clock.After(d):
		case <-e.done:
			return
		}
		if attempt() {
			return
		}
		if base < 5*time.Second {
			base *= 2
		}
	}
	e.log.Error(label+"_unacknowledged", obs.F("coordinator", string(e.cfg.Coordinator)))
}

// Leave announces a graceful departure: the coordinator drains every
// partition group this engine owns onto the remaining engines, then
// acknowledges with LeaveAck (observable via Left). Callable from any
// goroutine; idempotent.
func (e *Engine) Leave() {
	if !e.leaving.CompareAndSwap(false, true) {
		return
	}
	leave := proto.Leave{Node: e.cfg.Node}
	//distqlint:allow senderrcheck: retried below with backoff until LeaveAck
	e.ep.Send(e.cfg.Coordinator, leave)
	go e.retryBackoff("leave", func() bool {
		if e.leftAck.Load() {
			return true
		}
		//distqlint:allow senderrcheck: retried with backoff until LeaveAck
		e.ep.Send(e.cfg.Coordinator, leave)
		return false
	})
}

// Left reports whether the coordinator has released this engine (its
// Leave was acknowledged and it owns no partitions).
func (e *Engine) Left() bool { return e.leftAck.Load() }

// Joined reports whether a DynamicJoin engine has been admitted.
func (e *Engine) Joined() bool { return e.joined.Load() }

func (e *Engine) armTicker(period time.Duration, kind string) {
	tk := e.clock.NewTicker(period)
	e.tickers = append(e.tickers, tk)
	self := e.cfg.Node
	go func() {
		for {
			select {
			case <-tk.C:
				if err := e.ep.Send(self, proto.Tick{Kind: kind}); err != nil {
					return
				}
			case <-e.done:
				return
			}
		}
	}()
}

// Events exposes the engine's adaptation event log.
func (e *Engine) Events() *stats.EventLog { return e.events }

// Registry exposes the engine's metrics registry (monitoring endpoints,
// transport instrumentation).
func (e *Engine) Registry() *obs.Registry { return e.reg }

// Tracer exposes the engine's span tracer (spill, cleanup, and the
// engine-side halves of relocations).
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// Logger exposes the engine's structured logger (level control, output
// mirroring, the monitor's /logs endpoint).
func (e *Engine) Logger() *obs.Logger { return e.log }

// Handle is the engine's transport handler.
func (e *Engine) Handle(from partition.NodeID, msg proto.Message) {
	if e.stopped || e.crashed.Load() {
		return
	}
	// Every non-Data message is a barrier for the parallel join path:
	// the shard pool is quiesced before the handler touches operator
	// state, so the marker fence, spill victim selection, the 8-step
	// relocation protocol, checkpointing, drain, and cleanup all see the
	// same consistent single-threaded view as the serial engine.
	if _, isData := msg.(proto.Data); !isData {
		if qerr := e.quiesceShards(); qerr != nil {
			e.log.Error("shard_worker_error", obs.FErr(qerr))
		}
	}
	var err error
	switch m := msg.(type) {
	case proto.Data:
		err = e.onData(m)
	case proto.PauseMarker:
		err = e.onPauseMarker(m)
	case proto.Tick:
		err = e.onTick(m)
	case proto.CptV:
		err = e.onCptV(m)
	case proto.SendStates:
		err = e.onSendStates(m)
	case proto.StateTransfer:
		err = e.onStateTransfer(m)
	case proto.RelocAbort:
		err = e.onRelocAbort(m)
	case proto.ForceSpill:
		err = e.onForceSpill(m)
	case proto.Checkpoint:
		err = e.onCheckpoint(from, m)
	case proto.Drain:
		err = e.onDrain(from, m)
	case proto.StartCleanup:
		err = e.onCleanup(from)
	case proto.JoinAck:
		err = e.onJoinAck(m)
	case proto.MemberAddr:
		// Dynamically joined peer: extend a directory-based transport so
		// relocations and replica deltas toward it can route. In-proc
		// networks have no directory and ignore the message.
		if d, ok := e.net.(interface {
			AddNode(partition.NodeID, string)
		}); ok {
			d.AddNode(m.Node, m.Addr)
		}
	case proto.LeaveAck:
		e.leftAck.Store(true)
	case proto.ReplicaMap:
		err = e.repl.applyMap(m)
	case proto.StateDelta:
		err = e.repl.onDelta(m)
	case proto.DeltaAck:
		e.repl.onAck(m)
	case proto.Promote:
		err = e.onPromote(m)
	case proto.Demote:
		err = e.onDemote(m)
	case proto.Stop:
		e.shutdown()
	default:
		err = fmt.Errorf("unexpected message %T from %s", msg, from)
	}
	if err != nil {
		e.log.Error("handler_error", obs.FErr(err))
	}
}

// onPauseMarker acknowledges the drain fence (protocol step 4): the
// transport is FIFO, so the marker's arrival proves every earlier tuple
// for the moving partitions was processed. The trace context the split
// host echoed from the coordinator's Pause parents the fence span under
// the relocation's trace.
func (e *Engine) onPauseMarker(m proto.PauseMarker) error {
	span := e.tracer.StartChild(obs.SpanRelocationMarker, string(e.cfg.Node), e.clock.Now(), m.Trace)
	span.SetAttr("epoch", strconv.FormatUint(m.Epoch, 10))
	if err := e.ep.Send(e.cfg.Coordinator, proto.MarkerAck{Epoch: m.Epoch, Node: e.cfg.Node, Trace: m.Trace}); err != nil {
		span.Abort(e.clock.Now(), err.Error())
		return err
	}
	span.End(e.clock.Now())
	return nil
}

// quiesceShards fences the shard pool (no-op on the serial path): on
// return, every dispatched tuple is fully processed and no worker runs
// until the next dispatch.
func (e *Engine) quiesceShards() error {
	if e.pool == nil {
		return nil
	}
	e.reg.Counter("distq_engine_shard_quiesces_total").Inc()
	return e.pool.quiesce()
}

func (e *Engine) onData(m proto.Data) error {
	batch, err := tuple.DecodeBatch(m.Payload)
	if err != nil {
		return fmt.Errorf("decode batch: %w", err)
	}
	tuples := batch.Tuples
	if e.cfg.PreFilter != nil {
		// The pre-filter chain is applied on the handler (stateless
		// operators carry no concurrency contract), compacting the
		// batch in place before it is dispatched or processed.
		kept := tuples[:0]
		for i := range tuples {
			if t, ok := e.cfg.PreFilter.Apply(tuples[i]); ok {
				kept = append(kept, t)
			}
		}
		tuples = kept
	}
	if len(e.repl.followerOf) > 0 {
		// Replication taps the post-PreFilter stream: exactly what enters
		// the join's state is what a follower must be able to reproduce.
		for i := range tuples {
			e.repl.bufferAppend(e.pf.Of(tuples[i].Key), tuples[i])
		}
	}
	if e.pool != nil {
		// Each worker ships its own results (shardPool.run).
		e.pool.dispatch(tuples)
		return nil
	}
	// The batch is the handler's unit of work: its results ship when it
	// ends.
	defer e.flushShardResults(0)
	for i := range tuples {
		if _, err := e.op.Process(tuples[i]); err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) onTick(m proto.Tick) error {
	switch m.Kind {
	case proto.TickStats:
		return e.reportStats()
	case proto.TickSpill:
		// Algorithm 1, ss_timer_expired: spill only from normal mode;
		// in any adaptation mode, wait for the next timer expiry.
		if e.mode != core.NormalMode || !e.cfg.LocalSpill {
			return nil
		}
		// Memory-tier standby counts toward the local budget: a
		// standby-heavy follower must shed its own operator state (the
		// standby itself only leaves memory on the primary's spill
		// markers, keeping segment boundaries aligned).
		amount := e.cfg.Spill.SpillAmount(e.op.MemBytes() + e.repl.standbyBytes)
		if amount <= 0 {
			return nil
		}
		return e.spill(amount, stats.EventSpill, obs.TraceContext{})
	default:
		return fmt.Errorf("unknown tick %q", m.Kind)
	}
}

// spill runs one spill cycle. A forced spill carries the coordinator's
// trace context so the engine-side span joins the forced-spill trace;
// local (ss_timer) spills pass the zero context and trace standalone.
func (e *Engine) spill(amount int64, kind string, trace obs.TraceContext) error {
	spanKind := "local"
	if kind == stats.EventForcedSpill {
		spanKind = "forced"
	}
	span := e.tracer.StartChild(obs.SpanSpill, string(e.cfg.Node), e.clock.Now(), trace)
	span.SetAttr("kind", spanKind)
	span.SetAttr("requested_bytes", fmt.Sprintf("%d", amount))
	// Save and restore the surrounding mode instead of resetting to
	// normal: a ForceSpill can arrive mid-relocation (active-disk forces
	// spills at arbitrary machines), and clobbering RelocateMode would
	// re-enable the local ss_timer spill path during a state move.
	prev := e.mode
	e.mode = core.SpillMode
	res, err := e.mgr.Spill(amount, e.clock.Now())
	e.mode = prev
	if err != nil {
		span.Abort(e.clock.Now(), err.Error())
		return err
	}
	// Tell followers: buffered appends of the spilled generation flush
	// ahead of a spill marker, so their standby demotes the same
	// fraction at the same generation boundary.
	e.repl.noteSpill(res.Groups)
	span.SetAttr("groups", fmt.Sprintf("%d", len(res.Groups)))
	span.SetAttr("spilled_bytes", fmt.Sprintf("%d", res.Bytes))
	span.End(e.clock.Now())
	kl := obs.L("kind", spanKind)
	e.reg.Counter("distq_engine_spills_total", kl).Inc()
	e.reg.Counter("distq_engine_spill_bytes_total", kl).Add(float64(res.Bytes))
	e.events.Add(stats.Event{
		T: res.When, Node: e.cfg.Node, Kind: kind,
		Detail: fmt.Sprintf("%d groups, %d bytes", len(res.Groups), res.Bytes),
	})
	return nil
}

func (e *Engine) reportStats() error {
	if e.cfg.Window > 0 {
		e.op.Purge(e.clock.Now().Add(-e.cfg.Window))
	}
	if e.tracker != nil {
		e.tracker.Observe(e.op.Stats())
	}
	if err := e.repl.tick(); err != nil {
		// Seeding retries on the next tick; the report still goes out so
		// the coordinator keeps seeing (and charging) the group's lag.
		e.log.Error("replication_tick_error", obs.FErr(err))
	}
	var sizes map[partition.ID]int64
	sizeOf := func(id partition.ID) int64 {
		if sizes == nil {
			gs := e.op.Stats()
			sizes = make(map[partition.ID]int64, len(gs))
			for _, g := range gs {
				sizes[g.ID] = g.Size
			}
		}
		return sizes[id]
	}
	report := proto.StatsReport{
		Node: e.cfg.Node,
		// Memory-tier standby is real memory: without it a follower
		// over-reports headroom and the coordinator's M_query−M_cluster
		// forced-spill arithmetic undercounts the cluster.
		MemBytes:     e.op.MemBytes() + e.repl.standbyBytes,
		Groups:       e.op.Groups(),
		Output:       e.op.Output(),
		SpillCount:   e.mgr.Count(),
		SpilledBytes: e.mgr.SpilledBytes(),
		DiskSegments: e.cfg.Store.SegmentCount(),
		ReplLag:      e.repl.lag(sizeOf),
		ReplVersion:  e.repl.version,
	}
	e.reg.Gauge("distq_engine_standby_bytes").Set(float64(e.repl.standbyBytes))
	e.reg.Gauge("distq_engine_standby_segment_bytes").Set(float64(e.cfg.StandbyStore.Bytes()))
	e.lastReport.Store(&report)
	e.reg.Gauge("distq_engine_mem_bytes").Set(float64(report.MemBytes))
	e.reg.Gauge("distq_engine_groups").Set(float64(report.Groups))
	e.reg.Gauge("distq_engine_disk_segments").Set(float64(report.DiskSegments))
	e.reg.Gauge("distq_engine_output_results").Set(float64(report.Output))
	if e.cfg.GroupMetrics > 0 {
		e.reportGroupMetrics()
	}
	if err := e.ep.Send(e.cfg.Coordinator, report); err != nil {
		return err
	}
	return e.reportResults()
}

// reportGroupMetrics exports per-group tracker statistics as labeled
// gauges for the top Config.GroupMetrics most productive groups; gauges
// of groups that left the top set (relocated away, purged, outranked)
// are zeroed so departed series do not read as live state.
func (e *Engine) reportGroupMetrics() {
	gs := e.op.Stats()
	sort.SliceStable(gs, func(i, j int) bool { return gs[i].Productivity() > gs[j].Productivity() })
	seen := make(map[partition.ID]bool, e.cfg.GroupMetrics)
	for rank, g := range gs {
		if rank >= e.cfg.GroupMetrics {
			break
		}
		seen[g.ID] = true
		gl := obs.L("group", strconv.Itoa(int(g.ID)))
		e.reg.Gauge("distq_engine_group_resident_bytes", gl).Set(float64(g.Size))
		e.reg.Gauge("distq_engine_group_lifetime_bytes", gl).Set(float64(g.CumBytes))
		e.reg.Gauge("distq_engine_group_output_results", gl).Set(float64(g.Output))
		e.reg.Gauge("distq_engine_group_productivity_rank", gl).Set(float64(rank + 1))
	}
	for id := range e.gaugedGroups {
		if seen[id] {
			continue
		}
		gl := obs.L("group", strconv.Itoa(int(id)))
		e.reg.Gauge("distq_engine_group_resident_bytes", gl).Set(0)
		e.reg.Gauge("distq_engine_group_lifetime_bytes", gl).Set(0)
		e.reg.Gauge("distq_engine_group_output_results", gl).Set(0)
		e.reg.Gauge("distq_engine_group_productivity_rank", gl).Set(0)
	}
	e.gaugedGroups = seen
}

// StatsSnapshot returns the engine's most recent statistics report. It is
// safe for concurrent use (monitoring endpoints); a zero report means no
// sr_timer has fired yet.
func (e *Engine) StatsSnapshot() proto.StatsReport {
	if r := e.lastReport.Load(); r != nil {
		return *r
	}
	return proto.StatsReport{Node: e.cfg.Node}
}

func (e *Engine) reportResults() error {
	output := e.op.Output()
	delta := output - e.reportedOutput
	if delta == 0 {
		return nil
	}
	if err := e.ep.Send(e.cfg.AppServer, proto.ResultCount{Node: e.cfg.Node, Delta: delta}); err != nil {
		// Leave the cursor where it was: the unreported delta rides the
		// next successful report instead of being dropped forever.
		return err
	}
	e.reportedOutput = output
	return nil
}

// onCptV implements the engine's cptv event: pick the most productive
// groups worth the requested amount (they stay active in the receiver's
// memory) and answer with the list. A duplicated CptV (coordinator
// retry after a lost PtV) is re-answered with the cached choice so both
// sides agree on the moving set.
func (e *Engine) onCptV(m proto.CptV) error {
	if e.pendingReloc != nil && e.pendingReloc.epoch == m.Epoch {
		return e.ep.Send(e.cfg.Coordinator, proto.PtV{Epoch: m.Epoch, Node: e.cfg.Node, Partitions: e.pendingReloc.parts, Trace: m.Trace})
	}
	span := e.tracer.StartChild(obs.SpanRelocationCptV, string(e.cfg.Node), e.clock.Now(), m.Trace)
	span.SetAttr("epoch", strconv.FormatUint(m.Epoch, 10))
	span.SetAttr("amount_bytes", strconv.FormatInt(m.Amount, 10))
	e.savedXfer = nil // at most one outbound relocation's state is retained
	e.mode = core.RelocateMode
	var parts []partition.ID
	switch {
	case m.LowProd && e.tracker != nil:
		parts = core.SmoothedLeastProductiveMovers(e.tracker, e.op.Stats(), m.Amount)
	case m.LowProd:
		parts = core.LeastProductiveMovers(e.op.Stats(), m.Amount)
	case e.tracker != nil:
		parts = core.SmoothedMostProductiveMovers(e.tracker, e.op.Stats(), m.Amount)
	default:
		parts = core.MostProductiveMovers(e.op.Stats(), m.Amount)
	}
	e.pendingReloc = &relocState{epoch: m.Epoch, receiver: m.Receiver, parts: parts}
	if len(parts) == 0 {
		e.mode = core.NormalMode
		e.pendingReloc = nil
	}
	span.SetAttr("partitions", strconv.Itoa(len(parts)))
	span.End(e.clock.Now())
	return e.ep.Send(e.cfg.Coordinator, proto.PtV{Epoch: m.Epoch, Node: e.cfg.Node, Partitions: parts, Trace: m.Trace})
}

// onSendStates implements protocol step 5/6: extract the moving groups —
// resident generation plus their disk segments, which follow the group so
// cleanup stays local — and ship them to the receiver. If the transfer
// cannot be sent (receiver unreachable), the extracted state is
// reinstalled locally: an aborted relocation must never lose state.
//
// The extracted transfer is retained (savedXfer): a retried SendStates
// re-ships the identical encoded state instead of re-extracting (the
// groups are gone from the operator by then), and a RelocAbort
// reinstalls from it. A SendStates for an epoch that is neither pending
// nor saved is stale — the relocation was aborted — and is ignored.
func (e *Engine) onSendStates(m proto.SendStates) error {
	if x := e.savedXfer; x != nil && x.epoch == m.Epoch {
		return e.ep.Send(x.receiver, x.msg)
	}
	if e.pendingReloc == nil && m.Directed && !e.abortedEpochs[m.Epoch] {
		// A directed relocation (drain of a departing engine) skips the
		// CptV/PtV round — the coordinator chose the partitions — so the
		// pending state a CptV would have recorded is synthesized here.
		e.pendingReloc = &relocState{epoch: m.Epoch, receiver: m.Receiver, parts: m.Partitions}
		e.mode = core.RelocateMode
	}
	if e.pendingReloc == nil || e.pendingReloc.epoch != m.Epoch {
		return nil // stale: the epoch was aborted or superseded
	}
	defer func() {
		e.mode = core.NormalMode
		e.pendingReloc = nil
	}()
	span := e.tracer.StartChild(obs.SpanRelocationSend, string(e.cfg.Node), e.clock.Now(), m.Trace)
	span.SetAttr("epoch", fmt.Sprintf("%d", m.Epoch))
	span.SetAttr("receiver", string(m.Receiver))
	span.SetAttr("partitions", fmt.Sprintf("%d", len(m.Partitions)))
	// Forward the trace so the receiver's install span joins too.
	xfer := proto.StateTransfer{Epoch: m.Epoch, Trace: m.Trace}
	var residents []*join.GroupSnapshot
	var segments []*join.GroupSnapshot
	for _, id := range m.Partitions {
		if snap := e.op.RemoveForRelocation(id); snap != nil {
			residents = append(residents, snap)
			xfer.Resident = append(xfer.Resident, join.EncodeSnapshot(snap))
		}
		e.repl.forgetOwned(id)
		if e.tracker != nil {
			e.tracker.Forget(id)
		}
		segs, err := e.cfg.Store.Remove(id)
		if err != nil {
			span.Abort(e.clock.Now(), err.Error())
			return fmt.Errorf("extract segments of group %d: %w", id, err)
		}
		for _, seg := range segs {
			segments = append(segments, seg)
			xfer.Segments = append(xfer.Segments, join.EncodeSnapshot(seg))
		}
	}
	if err := e.ep.Send(m.Receiver, xfer); err != nil {
		span.Abort(e.clock.Now(), "transfer send: "+err.Error())
		for _, snap := range residents {
			if ierr := e.op.Install(snap); ierr != nil {
				return fmt.Errorf("reinstall after failed transfer: %v (transfer: %w)", ierr, err)
			}
		}
		for _, seg := range segments {
			if werr := e.cfg.Store.Write(seg); werr != nil {
				return fmt.Errorf("restore segments after failed transfer: %v (transfer: %w)", werr, err)
			}
		}
		return fmt.Errorf("state transfer to %s failed, state reinstalled locally: %w", m.Receiver, err)
	}
	span.SetAttr("resident_groups", fmt.Sprintf("%d", len(residents)))
	span.SetAttr("segments", fmt.Sprintf("%d", len(segments)))
	span.End(e.clock.Now())
	e.savedXfer = &savedTransfer{epoch: m.Epoch, receiver: m.Receiver, msg: xfer}
	e.reg.Counter("distq_engine_relocations_out_total").Inc()
	return nil
}

// reinstallSaved puts the saved transfer's state back into this
// engine's operator and store (sender-side relocation rollback).
func (e *Engine) reinstallSaved() error {
	x := e.savedXfer
	for _, buf := range x.msg.Resident {
		snap, err := join.DecodeSnapshot(buf)
		if err != nil {
			return fmt.Errorf("decode saved state: %w", err)
		}
		if err := e.op.Install(snap); err != nil {
			return fmt.Errorf("reinstall saved state: %w", err)
		}
	}
	for _, buf := range x.msg.Segments {
		seg, err := join.DecodeSnapshot(buf)
		if err != nil {
			return fmt.Errorf("decode saved segment: %w", err)
		}
		if err := e.cfg.Store.Write(seg); err != nil {
			return fmt.Errorf("restore saved segment: %w", err)
		}
	}
	return nil
}

// onRelocAbort rolls this engine out of a relocation epoch. It is
// idempotent and answers from any state: a receiver that already
// installed the epoch's transfer reports Installed (the coordinator
// commits forward); a sender holding the extracted state reinstalls it;
// an engine with the relocation merely pending clears its mode; an
// engine that knows nothing about the epoch still acknowledges. In
// every non-installed case the epoch is marked aborted so a transfer
// arriving late is discarded rather than forking the state.
func (e *Engine) onRelocAbort(m proto.RelocAbort) error {
	ack := proto.RelocAbortAck{Epoch: m.Epoch, Node: e.cfg.Node, Trace: m.Trace}
	switch {
	case e.installedEpochs[m.Epoch]:
		ack.Installed = true
	case e.savedXfer != nil && e.savedXfer.epoch == m.Epoch:
		if err := e.reinstallSaved(); err != nil {
			// State integrity beats protocol progress: keep savedXfer
			// and let the coordinator's retry re-attempt the rollback.
			return fmt.Errorf("relocation abort epoch %d: %w", m.Epoch, err)
		}
		e.savedXfer = nil
		e.abortedEpochs[m.Epoch] = true
		e.events.Add(stats.Event{T: e.clock.Now(), Node: e.cfg.Node, Kind: stats.EventAbort,
			Detail: fmt.Sprintf("epoch %d state reinstalled", m.Epoch)})
	case e.pendingReloc != nil && e.pendingReloc.epoch == m.Epoch:
		e.pendingReloc = nil
		e.mode = core.NormalMode
		e.abortedEpochs[m.Epoch] = true
	default:
		e.abortedEpochs[m.Epoch] = true
	}
	return e.ep.Send(e.cfg.Coordinator, ack)
}

// onStateTransfer implements the receiver side of step 6. Duplicate
// deliveries (a retried SendStates after a lost Installed) are re-acked
// without re-installing; a transfer whose epoch was already aborted
// here is discarded — the sender reinstalled the state, installing it
// again would duplicate every result it joins.
func (e *Engine) onStateTransfer(m proto.StateTransfer) error {
	if e.abortedEpochs[m.Epoch] {
		return nil
	}
	if e.installedEpochs[m.Epoch] {
		return e.ep.Send(e.cfg.Coordinator, proto.Installed{Epoch: m.Epoch, Node: e.cfg.Node, Trace: m.Trace})
	}
	span := e.tracer.StartChild(obs.SpanRelocationReceive, string(e.cfg.Node), e.clock.Now(), m.Trace)
	span.SetAttr("epoch", fmt.Sprintf("%d", m.Epoch))
	span.SetAttr("resident_groups", fmt.Sprintf("%d", len(m.Resident)))
	span.SetAttr("segments", fmt.Sprintf("%d", len(m.Segments)))
	for _, buf := range m.Resident {
		snap, err := join.DecodeSnapshot(buf)
		if err != nil {
			span.Abort(e.clock.Now(), err.Error())
			return fmt.Errorf("decode transferred state: %w", err)
		}
		if err := e.op.Install(snap); err != nil {
			span.Abort(e.clock.Now(), err.Error())
			return err
		}
	}
	for _, buf := range m.Segments {
		seg, err := join.DecodeSnapshot(buf)
		if err != nil {
			span.Abort(e.clock.Now(), err.Error())
			return fmt.Errorf("decode transferred segment: %w", err)
		}
		if err := e.cfg.Store.Write(seg); err != nil {
			span.Abort(e.clock.Now(), err.Error())
			return err
		}
	}
	span.End(e.clock.Now())
	e.installedEpochs[m.Epoch] = true
	e.reg.Counter("distq_engine_relocations_in_total").Inc()
	return e.ep.Send(e.cfg.Coordinator, proto.Installed{Epoch: m.Epoch, Node: e.cfg.Node, Trace: m.Trace})
}

// onForceSpill implements the active-disk start_ss event. A duplicated
// command (coordinator retry after a lost SpillDone) is re-acknowledged
// with the recorded outcome instead of spilling twice.
func (e *Engine) onForceSpill(m proto.ForceSpill) error {
	if m.Seq != 0 && m.Seq == e.lastForceSeq {
		return e.ep.Send(e.cfg.Coordinator, proto.SpillDone{Node: e.cfg.Node, Bytes: e.lastForceBytes, Seq: m.Seq, Trace: m.Trace})
	}
	var bytes int64
	if err := func() error {
		before := e.mgr.SpilledBytes()
		if err := e.spill(m.Amount, stats.EventForcedSpill, m.Trace); err != nil {
			return err
		}
		bytes = e.mgr.SpilledBytes() - before
		return nil
	}(); err != nil {
		return err
	}
	e.lastForceSeq, e.lastForceBytes = m.Seq, bytes
	return e.ep.Send(e.cfg.Coordinator, proto.SpillDone{Node: e.cfg.Node, Bytes: bytes, Seq: m.Seq, Trace: m.Trace})
}

// onCheckpoint persists the resident operator state into the configured
// checkpoint directory and reports the outcome to the requester.
func (e *Engine) onCheckpoint(from partition.NodeID, m proto.Checkpoint) error {
	span := e.tracer.StartChild(obs.SpanCheckpoint, string(e.cfg.Node), e.clock.Now(), m.Trace)
	done := proto.CheckpointDone{Node: e.cfg.Node, Trace: m.Trace}
	if e.cfg.CheckpointDir == "" {
		done.Error = "no checkpoint directory configured"
	} else if n, err := checkpoint.Save(e.op, e.cfg.CheckpointDir); err != nil {
		done.Groups = n
		done.Error = err.Error()
	} else {
		done.Groups = n
	}
	span.SetAttr("groups", strconv.Itoa(done.Groups))
	if done.Error != "" {
		span.Abort(e.clock.Now(), done.Error)
	} else {
		span.End(e.clock.Now())
	}
	return e.ep.Send(from, done)
}

// Restore loads the latest checkpoint generation into the operator.
// Call it on a freshly built engine before Start (the handler must not
// be processing messages yet); restart recovery pairs it with a
// reopened file-backed spill store over the same directory, whose disk
// segments survived the crash.
func (e *Engine) Restore() (int, error) {
	if e.cfg.CheckpointDir == "" {
		return 0, nil
	}
	return checkpoint.Load(e.op, e.cfg.CheckpointDir)
}

// Crash simulates an abrupt machine failure: message processing halts
// (everything still queued is discarded), timers stop, and the endpoint
// detaches. In-memory state is not preserved — recovery goes through a
// fresh engine over the same checkpoint and store directories, Restore,
// and re-Attach. Callable from any goroutine.
func (e *Engine) Crash() {
	e.crashed.Store(true)
	if e.pool != nil {
		// Release the workers (and any handler blocked on a dispatch or
		// barrier) without draining: a crash abandons queued tuples.
		e.pool.interrupt()
	}
	for _, tk := range e.tickers {
		tk.Stop()
	}
	if e.ep != nil {
		_ = e.ep.Close()
	}
	e.doneOnce.Do(func() { close(e.done) })
}

// onJoinAck completes the dynamic-join handshake.
func (e *Engine) onJoinAck(m proto.JoinAck) error {
	if !m.Accepted {
		e.log.Error("join_refused", obs.F("reason", m.Reason))
		return fmt.Errorf("join refused by coordinator: %s", m.Reason)
	}
	if !e.joined.Swap(true) {
		e.log.Info("joined_cluster", obs.F("coordinator", string(e.cfg.Coordinator)))
		e.events.Add(stats.Event{T: e.clock.Now(), Node: e.cfg.Node, Kind: stats.EventJoin, Detail: "admitted by coordinator"})
	}
	return nil
}

// onPromote installs this engine's warm standby copies of the groups as
// resident operator state — failover without a checkpoint replay. The
// coordinator's trace context parents the install span under its
// promotion span. Idempotent per epoch (retries re-ack).
func (e *Engine) onPromote(m proto.Promote) error {
	ack := proto.PromoteAck{Epoch: m.Epoch, Node: e.cfg.Node, Installed: true, Trace: m.Trace}
	if e.promotedEpochs[m.Epoch] {
		return e.ep.Send(e.cfg.Coordinator, ack)
	}
	span := e.tracer.StartChild(obs.SpanPromotionInstall, string(e.cfg.Node), e.clock.Now(), m.Trace)
	span.SetAttr("epoch", strconv.FormatUint(m.Epoch, 10))
	span.SetAttr("from", string(m.From))
	span.SetAttr("groups", strconv.Itoa(len(m.Groups)))
	installed, err := e.repl.promote(m.Groups)
	if err != nil {
		// No ack: state integrity beats protocol progress; the
		// coordinator's retry or escalation decides what happens next.
		span.Abort(e.clock.Now(), err.Error())
		return err
	}
	span.SetAttr("installed", strconv.Itoa(installed))
	span.End(e.clock.Now())
	e.promotedEpochs[m.Epoch] = true
	e.reg.Counter("distq_engine_promotions_total").Inc()
	e.events.Add(stats.Event{T: e.clock.Now(), Node: e.cfg.Node, Kind: stats.EventPromote,
		Detail: fmt.Sprintf("epoch %d: %d groups from %s (%d standby installs)", m.Epoch, len(m.Groups), m.From, installed)})
	return e.ep.Send(e.cfg.Coordinator, ack)
}

// onDemote drops this revived engine's now-stale copies of groups that
// were failed over away from it while it was presumed dead. The
// replication tail is flushed to the new owners first — tuples buffered
// here but never delivered merge into their resident state over the
// ordinary delta stream. Idempotent per epoch.
func (e *Engine) onDemote(m proto.Demote) error {
	ack := proto.DemoteAck{Epoch: m.Epoch, Node: e.cfg.Node, Trace: m.Trace}
	if e.demotedEpochs[m.Epoch] {
		return e.ep.Send(e.cfg.Coordinator, ack)
	}
	e.repl.tailFlush(m.Groups)
	dropped := 0
	for _, id := range m.Groups {
		e.repl.forgetOwned(id)
		if e.op.RemoveForRelocation(id) != nil {
			dropped++
		}
		if e.tracker != nil {
			e.tracker.Forget(id)
		}
		if _, err := e.cfg.Store.Remove(id); err != nil {
			return fmt.Errorf("drop segments of demoted group %d: %w", id, err)
		}
	}
	e.demotedEpochs[m.Epoch] = true
	e.reg.Counter("distq_engine_demotions_total").Inc()
	e.events.Add(stats.Event{T: e.clock.Now(), Node: e.cfg.Node, Kind: stats.EventDemote,
		Detail: fmt.Sprintf("epoch %d: %d stale groups dropped (%d resident)", m.Epoch, len(m.Groups), dropped)})
	return e.ep.Send(e.cfg.Coordinator, ack)
}

func (e *Engine) onDrain(from partition.NodeID, m proto.Drain) error {
	if err := e.reportStats(); err != nil {
		return err
	}
	// Push any coalesced outbound frames (result batches headed for the
	// app server) to the wire before acknowledging, so the ack cannot
	// imply "drained" while data frames sit in a write buffer.
	transport.FlushOutbound(e.ep)
	return e.ep.Send(from, proto.DrainAck{Token: m.Token, Node: e.cfg.Node, Trace: m.Trace})
}

// onCleanup runs the disk-phase cleanup over this engine's store and
// resident state, shipping results (materializing mode) and reporting the
// outcome to the requester.
func (e *Engine) onCleanup(from partition.NodeID) error {
	span := e.tracer.Start(obs.SpanCleanup, string(e.cfg.Node), e.clock.Now())
	// Every cleanup worker buffers into a sink of its own and ships it at
	// the end of each group.
	var sinks func() cleanup.Sink
	switch {
	case e.cfg.Materialize:
		sinks = func() cleanup.Sink { return &resultBuf{e: e, phase: proto.PhaseCleanup} }
	case e.cfg.EnumerateResults:
		sinks = cleanup.Discard
	}
	st, err := cleanup.RunWith(e.cfg.Inputs, e.cfg.Store, e.op, e.cfg.Window, sinks, cleanup.Options{
		Parallelism: e.cfg.CleanupParallelism,
		Tracer:      e.tracer,
		Registry:    e.reg,
		Node:        string(e.cfg.Node),
		Now:         e.clock.Now,
	})
	span.SetAttr("groups", fmt.Sprintf("%d", st.Groups))
	span.SetAttr("segments", fmt.Sprintf("%d", st.Segments))
	span.SetAttr("results", fmt.Sprintf("%d", st.Results))
	span.SetAttr("workers", fmt.Sprintf("%d", st.Workers))
	if err != nil {
		span.Abort(e.clock.Now(), err.Error())
	} else {
		span.End(e.clock.Now())
	}
	done := proto.CleanupDone{
		Node:      e.cfg.Node,
		Groups:    st.Groups,
		Segments:  st.Segments,
		Tuples:    st.Tuples,
		Results:   st.Results,
		ElapsedNs: st.Elapsed.Nanoseconds(),
	}
	if err != nil {
		// Report the failure instead of leaving the requester waiting.
		done.Error = err.Error()
	}
	if sendErr := e.ep.Send(from, done); sendErr != nil {
		return sendErr
	}
	return err
}

// resultBuf is one result producer's pending materialized results,
// already encoded: emit hands over a Result whose Seqs is the producer's
// scratch buffer, so it is consumed (encoded) inside the callback rather
// than retained. Every producer owns its buffer exclusively — the
// handler on the serial path, each shard worker, each cleanup worker —
// and ships it as one ResultData when its unit of work ends, so no lock
// guards a buffer and no timer has to sweep one. It is also the cleanup
// workers' cleanup.Sink.
type resultBuf struct {
	e       *Engine
	phase   proto.Phase
	payload []byte
	count   int
}

// Emit encodes one result, shipping the buffer early at the size cap.
func (b *resultBuf) Emit(r tuple.Result) {
	b.payload = r.AppendTo(b.payload)
	b.count++
	if b.count >= resultFlushThreshold {
		b.flush()
	}
}

// EndGroup ships a cleanup worker's results once per merged group.
func (b *resultBuf) EndGroup() { b.flush() }

// flush ships the pending results, if any. The receiver retains the
// payload (the in-process transport hands the message over by
// reference), so the next results start a fresh buffer.
func (b *resultBuf) flush() {
	if b.count == 0 {
		return
	}
	msg := proto.ResultData{Node: b.e.cfg.Node, Payload: b.payload, Phase: b.phase}
	b.payload, b.count = nil, 0
	if err := b.e.ep.Send(b.e.cfg.AppServer, msg); err != nil {
		b.e.log.Error("result_flush_error", obs.FErr(err))
	}
}

// flushShardResults ships shard i's run-time results; its caller is the
// goroutine that drives the shard.
func (e *Engine) flushShardResults(i int) {
	if e.shardResults != nil {
		e.shardResults[i].flush()
	}
}

func (e *Engine) shutdown() {
	// The Stop message already quiesced the pool (Handle's barrier), so
	// every dispatched tuple is applied; close waits for the workers to
	// finish their spans before the done fence releases state readers.
	if e.pool != nil {
		e.pool.close()
	}
	e.stopped = true
	for _, tk := range e.tickers {
		tk.Stop()
	}
	e.doneOnce.Do(func() { close(e.done) })
}

// Done closes once the engine's handler has processed Stop; the harness
// waits on it before reading engine state.
func (e *Engine) Done() <-chan struct{} { return e.done }

// Stop halts the engine's timers (idempotent, callable from any
// goroutine once the experiment is over).
func (e *Engine) Stop() {
	if e.ep != nil {
		// Route through the handler for single-threaded shutdown.
		//distqlint:allow senderrcheck: best-effort self-stop; a dead own endpoint is already stopped
		e.ep.Send(e.cfg.Node, proto.Stop{})
	}
}

// Op exposes the join operator for post-run inspection by the harness
// (only safe after the engine is stopped or drained).
func (e *Engine) Op() *join.Operator { return e.op }

// SpillManager exposes spill statistics for post-run inspection.
func (e *Engine) SpillManager() *spill.Manager { return e.mgr }

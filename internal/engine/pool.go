package engine

import (
	"strconv"
	"sync"

	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/tuple"
)

// shardWorkBuffer is the per-worker channel depth: enough to keep a
// worker fed across consecutive batches, small enough that the handler
// backpressures instead of queueing unbounded state.
const shardWorkBuffer = 4

// shardItem is one unit of work for a shard worker: either a run of
// same-shard tuples (batch order preserved, so a partition group's
// tuples stay FIFO) or a barrier, acknowledged by closing ack once every
// item enqueued before it has been fully processed.
type shardItem struct {
	tuples []tuple.Tuple
	ack    chan struct{}
}

// shardWorker drives one join shard from a dedicated goroutine.
type shardWorker struct {
	shard *join.Shard
	work  chan shardItem
	// err is the first Process error; written only by the worker
	// goroutine and read by the handler after a barrier ack, which
	// orders the accesses.
	err error
}

// shardPool is the bounded worker pool of the engine's parallel join
// path: shard i of the operator is driven exclusively by worker i, and
// the handler's control messages quiesce every worker before touching
// operator state (see Engine.Handle). Dispatch and quiesce run only on
// the handler goroutine; stop/interrupt may race with them from any
// goroutine (Crash), which every channel operation guards with a select
// on the stop fence.
type shardPool struct {
	e       *Engine
	workers []*shardWorker
	stop    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup
	// counts/starts are dispatch scratch, reused across batches; safe
	// because dispatch only runs on the serial handler goroutine.
	counts []int
	starts []int
}

// newShardPool builds the pool over the engine's operator shards; start
// launches the workers.
func newShardPool(e *Engine) *shardPool {
	n := e.op.NumShards()
	p := &shardPool{
		e:       e,
		workers: make([]*shardWorker, n),
		stop:    make(chan struct{}),
		counts:  make([]int, n),
		starts:  make([]int, n),
	}
	for i := range p.workers {
		p.workers[i] = &shardWorker{shard: e.op.Shard(i), work: make(chan shardItem, shardWorkBuffer)}
	}
	return p
}

// start launches one goroutine per shard.
func (p *shardPool) start() {
	for i, w := range p.workers {
		p.wg.Add(1)
		go p.run(i, w)
	}
}

// run is one worker's loop. The worker owns its shard and the shard's
// result buffer exclusively, so neither needs locking. It ships the
// buffer whenever its queue runs empty — under load consecutive batches
// share one ResultData, when idle each batch's results leave at once —
// and always before acknowledging a barrier, so a quiesced pool holds no
// unsent result (Drain's "every result is sent" rests on this).
func (p *shardPool) run(idx int, w *shardWorker) {
	defer p.wg.Done()
	e := p.e
	label := strconv.Itoa(idx)
	span := e.tracer.Start(obs.SpanJoinShard, string(e.cfg.Node), e.clock.Now())
	span.SetAttr("shard", label)
	tuplesCtr := e.reg.Counter("distq_engine_shard_tuples_total", obs.L("shard", label))
	var tuples, results uint64
	for {
		select {
		case <-p.stop:
			// Crash/stop fence: acknowledge queued barriers so a
			// concurrent quiesce cannot block, discard queued tuples
			// (crash semantics; an orderly shutdown quiesced first).
			p.drainAcks(w)
			span.SetAttr("tuples", strconv.FormatUint(tuples, 10))
			span.SetAttr("results", strconv.FormatUint(results, 10))
			span.End(e.clock.Now())
			return
		case item := <-w.work:
			if item.ack != nil {
				e.flushShardResults(idx)
				close(item.ack)
				continue
			}
			for i := range item.tuples {
				n, err := w.shard.Process(item.tuples[i])
				if err != nil && w.err == nil {
					w.err = err
				}
				results += n
			}
			tuples += uint64(len(item.tuples))
			tuplesCtr.Add(float64(len(item.tuples)))
			if len(w.work) == 0 {
				e.flushShardResults(idx)
			}
		}
	}
}

// drainAcks releases every barrier still queued at the stop fence.
func (p *shardPool) drainAcks(w *shardWorker) {
	for {
		select {
		case item := <-w.work:
			if item.ack != nil {
				close(item.ack)
			}
		default:
			return
		}
	}
}

// dispatch buckets a decoded batch by owning shard (one flat allocation
// per batch) and hands each non-empty bucket to its worker, preserving
// the batch order within every shard. It does not wait for processing:
// data pipelines across batches until the next control-message barrier.
func (p *shardPool) dispatch(tuples []tuple.Tuple) {
	if len(tuples) == 0 {
		return
	}
	op := p.e.op
	for i := range p.counts {
		p.counts[i] = 0
	}
	for i := range tuples {
		p.counts[op.ShardIndex(tuples[i].Key)]++
	}
	// One backing array for all buckets; workers receive disjoint
	// sub-slices, so the handler must not touch it after dispatch.
	flat := make([]tuple.Tuple, len(tuples))
	off := 0
	for i, c := range p.counts {
		p.starts[i] = off
		off += c
	}
	fill := p.starts
	for i := range tuples {
		w := op.ShardIndex(tuples[i].Key)
		flat[fill[w]] = tuples[i]
		fill[w]++
	}
	off = 0
	for i, c := range p.counts {
		if c == 0 {
			continue
		}
		p.send(p.workers[i], shardItem{tuples: flat[off : off+c]})
		off += c
	}
}

// send enqueues one item, abandoning it if the pool is stopping.
func (p *shardPool) send(w *shardWorker, item shardItem) {
	select {
	case w.work <- item:
	case <-p.stop:
	}
}

// quiesce fences every worker: when it returns, all tuples dispatched
// before it are fully processed and no worker touches operator state
// until the handler dispatches again — the consistent single-threaded
// view every control message requires. It surfaces (and clears) the
// first worker error, by shard order for determinism.
func (p *shardPool) quiesce() error {
	acks := make([]chan struct{}, 0, len(p.workers))
	for _, w := range p.workers {
		ack := make(chan struct{})
		select {
		case w.work <- shardItem{ack: ack}:
			acks = append(acks, ack)
		case <-p.stop:
		}
	}
	for _, ack := range acks {
		select {
		case <-ack:
		case <-p.stop:
			// Crashed mid-quiesce: consistency no longer matters, and
			// worker error fields are unsynchronized now.
			return nil
		}
	}
	var err error
	for _, w := range p.workers {
		if w.err != nil {
			if err == nil {
				err = w.err
			}
			w.err = nil
		}
	}
	return err
}

// close stops the workers and waits for them to finish their spans; the
// caller quiesces first when pending work must still be applied.
func (p *shardPool) close() {
	p.interrupt()
	p.wg.Wait()
}

// interrupt stops the workers without waiting (crash path; callable
// from any goroutine).
func (p *shardPool) interrupt() {
	p.stopped.Do(func() { close(p.stop) })
}

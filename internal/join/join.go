// Package join implements the symmetric m-way hash join operator used as
// the representative state-intensive operator, with its state organized as
// partition groups (paper §2): all per-input partitions sharing a partition
// ID form one group, the smallest unit of spill and relocation.
//
// Each group carries a generation number. The resident hash tables always
// hold the current generation; a spill extracts the resident tuples as one
// generation and advances the counter. Because a newly arriving tuple joins
// exactly the co-resident (same-generation) tuples, the run-time output of
// a group is precisely the set of matches whose members all share a
// generation — which is what makes the timestamp-free cleanup of package
// cleanup exact.
//
// Internally the operator's groups are divided among one or more shards
// (stable assignment: partition ID mod shard count). Each shard owns its
// groups, arena, and probe scratch exclusively, so distinct shards can be
// driven from distinct goroutines concurrently (the engine's shard-worker
// pool); the single-shard operator behaves exactly like the historical
// serial implementation. Cross-shard aggregates (MemBytes, Output, Stats)
// and the group-level state operations (spill extraction, relocation,
// install, snapshots, purge) are not synchronized and must only be called
// while no shard is processing — the engine quiesces its pool before every
// control message for exactly this reason.
package join

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// EmitFunc receives each produced join result. A nil EmitFunc puts the
// operator in count-only mode: matches are counted (and drive all
// statistics) without being materialized, which the long-running
// throughput experiments use to avoid drowning in result tuples.
//
// Ownership: the Result's Seqs slice is a scratch buffer owned by the
// caller and only valid for the duration of the call — the hot path
// reuses it for the next match instead of allocating per result. An
// implementation that retains the result beyond the call must copy it
// first (tuple.Result.Clone). With a sharded operator the callback runs
// on whichever goroutine drives the shard that produced the match, and
// concurrently across shards: an operator-wide EmitFunc must serialize
// its own state, or each shard gets its own sink with Shard.SetEmit (the
// engine's per-shard result buffers). See PROTOCOL.md "Performance".
type EmitFunc func(tuple.Result)

// Operator is one instance of the partitioned m-way symmetric hash join.
// The zero-argument entry points (Process, ProcessBatch) route tuples to
// the owning shard and are not safe for concurrent use; for parallel
// execution, drive each Shard from at most one goroutine at a time and
// keep the group-level operations quiesced (see the package comment).
type Operator struct {
	inputs int
	part   partition.Func
	window time.Duration // 0 = unbounded
	shards []*Shard
}

// Shard owns an exclusive, stable subset of the operator's partition
// groups (those with partition ID ≡ index mod shard count) plus the
// scratch buffers of its probe path. Distinct shards share no mutable
// state and may be driven concurrently; one shard must only be driven by
// one goroutine at a time.
type Shard struct {
	op        *Operator
	idx       int
	groups    map[partition.ID]*group
	totalSize int64
	output    uint64
	// emit receives this shard's matches; nil counts them only.
	emit EmitFunc
	// scratch buffers reused across probes to avoid per-tuple allocation.
	lists [][]tuple.Tuple
	seqs  []uint64
}

// arena allocates per-key tuple storage out of fixed-size chunks, so
// the per-tuple insert path almost never hits the allocator: a chunk
// serves hundreds of list carves, and a list that outgrows its carve is
// moved to a doubled carve (amortized O(1) copies, like a bare append)
// without an allocation of its own. Abandoned carves stay unused inside
// their chunk until the whole generation is dropped by a spill or
// relocation, which bounds the waste to a constant factor — the
// memory-layout trade-off arXiv:2112.02480 §4 makes for hash joins.
type arena struct {
	cur []tuple.Tuple
}

// arenaChunkTuples is the arena chunk size (~28 KiB of tuple headers).
const arenaChunkTuples = 512

// carve returns an empty slice with capacity n backed by the arena.
// Carves never overlap: the capacity is clipped with a full slice
// expression and the arena's cursor advances past it.
func (a *arena) carve(n int) []tuple.Tuple {
	if cap(a.cur)-len(a.cur) < n {
		size := arenaChunkTuples
		if n > size {
			size = n
		}
		a.cur = make([]tuple.Tuple, 0, size)
	}
	start := len(a.cur)
	a.cur = a.cur[:start+n]
	return a.cur[start : start : start+n]
}

// keyList is the per-(input, key) tuple storage. The table holds a
// pointer so inserts mutate the list in place instead of re-writing the
// map entry on every tuple.
type keyList struct {
	tuples []tuple.Tuple
}

// initialKeyListCap is the first carve size of a key's tuple list.
const initialKeyListCap = 8

// grown returns the list's tuples with room for at least one more
// element, moving them to a doubled arena carve when full.
func (l *keyList) grown(a *arena) []tuple.Tuple {
	ts := l.tuples
	if len(ts) < cap(ts) {
		return ts
	}
	n := 2 * len(ts)
	if n < initialKeyListCap {
		n = initialKeyListCap
	}
	nl := a.carve(n)
	return append(nl, ts...)
}

func (l *keyList) append(a *arena, t tuple.Tuple) {
	l.tuples = append(l.grown(a), t)
}

// group is the in-memory state of one partition group: per-input hash
// tables over the join key, restricted to the current generation.
type group struct {
	id     partition.ID
	gen    uint32
	tables []map[uint64]*keyList
	size   int64
	cum    int64 // lifetime bytes ever inserted (survives spills)
	count  int
	// counts tracks resident tuples per input, so snapshots can
	// preallocate their flattened per-input slices exactly.
	counts []int
	// arena backs the tables' per-key tuple lists for the current
	// generation; it is replaced wholesale when the generation turns
	// over (spill extraction).
	arena  arena
	output uint64 // lifetime results produced by this group (P_output)
	// spilledTs is the maximum timestamp among tuples ever spilled from
	// this group (windowed mode): resident tuples at or before
	// spilledTs+window may still owe cross-generation matches to disk
	// state and must not be purged (they are spilled instead).
	spilledTs   vclock.Time
	everSpilled bool
}

// New returns a serial (single-shard) m-way join operator over inputs
// streams partitioned by part. It panics if inputs < 2, as a join needs
// at least two inputs.
func New(inputs int, part partition.Func, emit EmitFunc) *Operator {
	return NewSharded(inputs, part, 1, emit)
}

// NewSharded returns an m-way join operator whose partition groups are
// divided among shards (clamped to ≥ 1) by partition ID mod shards. The
// assignment is stable for the operator's lifetime, so a group's tuples
// stay FIFO within their shard. It panics if inputs < 2.
func NewSharded(inputs int, part partition.Func, shards int, emit EmitFunc) *Operator {
	if inputs < 2 {
		panic(fmt.Sprintf("join: need at least 2 inputs, got %d", inputs))
	}
	if shards < 1 {
		shards = 1
	}
	o := &Operator{inputs: inputs, part: part, shards: make([]*Shard, shards)}
	for i := range o.shards {
		o.shards[i] = &Shard{
			op:     o,
			idx:    i,
			emit:   emit,
			groups: make(map[partition.ID]*group),
			lists:  make([][]tuple.Tuple, inputs),
			seqs:   make([]uint64, inputs),
		}
	}
	return o
}

// Inputs reports the number of join inputs.
func (o *Operator) Inputs() int { return o.inputs }

// NumShards reports the operator's shard count (1 = serial).
func (o *Operator) NumShards() int { return len(o.shards) }

// Shard returns shard i for external drivers (the engine's worker pool).
func (o *Operator) Shard(i int) *Shard { return o.shards[i] }

// SetEmit replaces the EmitFunc this shard's matches go to, so a driver
// can give every shard a sink of its own that only the shard's goroutine
// touches. nil switches the shard to count-only. Call it before the shard
// processes, or while it is quiesced.
func (s *Shard) SetEmit(emit EmitFunc) { s.emit = emit }

// ShardIndex reports which shard owns the partition group of a join key,
// so batch dispatchers can bucket tuples without touching shard state.
func (o *Operator) ShardIndex(key uint64) int {
	return int(o.part.Of(key)) % len(o.shards)
}

// shardOf returns the shard owning partition group id.
func (o *Operator) shardOf(id partition.ID) *Shard {
	return o.shards[int(id)%len(o.shards)]
}

// MemBytes reports the total resident operator-state size in bytes.
func (o *Operator) MemBytes() int64 {
	var n int64
	for _, s := range o.shards {
		n += s.totalSize
	}
	return n
}

// Output reports the total number of results produced so far.
func (o *Operator) Output() uint64 {
	var n uint64
	for _, s := range o.shards {
		n += s.output
	}
	return n
}

// Groups reports the number of partition groups resident in the operator
// (including groups whose current generation is empty).
func (o *Operator) Groups() int {
	n := 0
	for _, s := range o.shards {
		n += len(s.groups)
	}
	return n
}

// Process runs one tuple through the join: probe the other inputs'
// resident tables in the tuple's partition group, emit/count all matches,
// then insert the tuple into its own table. It returns the number of
// results produced.
func (o *Operator) Process(t tuple.Tuple) (uint64, error) {
	if int(t.Stream) >= o.inputs {
		return 0, fmt.Errorf("join: tuple for stream %d in %d-way join", t.Stream, o.inputs)
	}
	id := o.part.Of(t.Key)
	return o.shardOf(id).process(id, t), nil
}

// Process runs one tuple through this shard's slice of the join. It
// rejects tuples whose partition group belongs to a different shard —
// processing them here would split the group's state across shards and
// silently lose matches.
func (s *Shard) Process(t tuple.Tuple) (uint64, error) {
	if int(t.Stream) >= s.op.inputs {
		return 0, fmt.Errorf("join: tuple for stream %d in %d-way join", t.Stream, s.op.inputs)
	}
	id := s.op.part.Of(t.Key)
	if int(id)%len(s.op.shards) != s.idx {
		return 0, fmt.Errorf("join: tuple for partition %d routed to shard %d of %d", id, s.idx, len(s.op.shards))
	}
	return s.process(id, t), nil
}

// process is the per-tuple hot path, called with a validated stream and
// this shard's own partition ID.
func (s *Shard) process(id partition.ID, t tuple.Tuple) uint64 {
	o := s.op
	g, ok := s.groups[id]
	if !ok {
		g = newGroup(id, 0, o.inputs)
		s.groups[id] = g
	}
	produced := s.probe(g, &t)
	g.output += produced
	s.output += produced

	tab := g.tables[t.Stream]
	kl := tab[t.Key]
	if kl == nil {
		kl = &keyList{}
		tab[t.Key] = kl
	}
	if o.window > 0 {
		// Keep per-key lists timestamp-sorted so window probes can
		// binary-search their bounds.
		kl.insertOrdered(&g.arena, t)
	} else {
		kl.append(&g.arena, t)
	}
	sz := t.MemSize()
	g.size += sz
	g.cum += sz
	g.count++
	g.counts[t.Stream]++
	s.totalSize += sz
	return produced
}

// probe counts (and, when materializing, emits) the matches of t against
// the other inputs' resident tuples in group g.
func (s *Shard) probe(g *group, t *tuple.Tuple) uint64 {
	o := s.op
	count := uint64(1)
	for i := 0; i < o.inputs; i++ {
		if i == int(t.Stream) {
			continue
		}
		var l []tuple.Tuple
		if kl := g.tables[i][t.Key]; kl != nil {
			l = kl.tuples
		}
		if o.window > 0 {
			l = windowBounds(l, t.Ts, o.window)
		}
		if len(l) == 0 {
			return 0
		}
		s.lists[i] = l
		count *= uint64(len(l))
	}
	if s.emit != nil {
		s.seqs[t.Stream] = t.Seq
		s.enumerate(t, 0)
	}
	return count
}

// enumerate walks the cartesian product of the matched lists, emitting one
// Result per combination. input is the next stream index to bind. The
// emitted Result shares the shard's scratch seqs buffer (see the EmitFunc
// ownership contract), so enumeration allocates nothing.
func (s *Shard) enumerate(t *tuple.Tuple, input int) {
	if input == s.op.inputs {
		s.emit(tuple.Result{Key: t.Key, Seqs: s.seqs})
		return
	}
	if input == int(t.Stream) {
		s.enumerate(t, input+1)
		return
	}
	for i := range s.lists[input] {
		s.seqs[input] = s.lists[input][i].Seq
		s.enumerate(t, input+1)
	}
}

// ProcessBatch runs every tuple of b through the join, returning the total
// results produced.
func (o *Operator) ProcessBatch(b *tuple.Batch) (uint64, error) {
	var total uint64
	for i := range b.Tuples {
		n, err := o.Process(b.Tuples[i])
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

func newGroup(id partition.ID, gen uint32, inputs int) *group {
	tables := make([]map[uint64]*keyList, inputs)
	for i := range tables {
		tables[i] = make(map[uint64]*keyList)
	}
	return &group{id: id, gen: gen, tables: tables, counts: make([]int, inputs)}
}

// Stats returns the per-group statistics the local adaptation controller
// feeds into the spill/move policies, sorted by partition ID for
// determinism.
func (o *Operator) Stats() []core.GroupStats {
	n := 0
	for _, s := range o.shards {
		n += len(s.groups)
	}
	stats := make([]core.GroupStats, 0, n)
	for _, s := range o.shards {
		for _, g := range s.groups {
			stats = append(stats, core.GroupStats{ID: g.id, Size: g.size, CumBytes: g.cum, Output: g.output})
		}
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].ID < stats[j].ID })
	return stats
}

// GroupSnapshot is the serializable state of one partition group
// generation, produced by spill extraction and state relocation.
type GroupSnapshot struct {
	ID  partition.ID
	Gen uint32
	// Output is the group's lifetime result counter; it travels with the
	// group during relocation so productivity remains meaningful at the
	// receiver. Spill extraction leaves the counter in the operator.
	Output uint64
	// CumBytes is the group's lifetime inserted-bytes counter, the
	// productivity metric's denominator; like Output it travels with
	// relocations.
	CumBytes int64
	// SpilledTs / EverSpilled carry the group's purge watermark
	// (windowed mode): the maximum timestamp ever spilled from the
	// group. They travel with relocations, like the disk segments whose
	// pending matches they protect.
	SpilledTs   vclock.Time
	EverSpilled bool
	// Tuples holds the generation's tuples per input stream.
	Tuples [][]tuple.Tuple
}

// TupleCount reports the number of tuples across all inputs.
func (s *GroupSnapshot) TupleCount() int {
	n := 0
	for _, l := range s.Tuples {
		n += len(l)
	}
	return n
}

// MemBytes reports the accounted size of all tuples in the snapshot.
func (s *GroupSnapshot) MemBytes() int64 {
	var n int64
	for _, l := range s.Tuples {
		for i := range l {
			n += l[i].MemSize()
		}
	}
	return n
}

// snapshotTables flattens hash tables into per-input tuple slices with a
// deterministic order (key, then insertion order). counts carries the
// exact per-input tuple totals so every flattened slice is allocated
// once at its final size; the copies detach the snapshot from the
// group's arena.
func snapshotTables(tables []map[uint64]*keyList, counts []int) [][]tuple.Tuple {
	out := make([][]tuple.Tuple, len(tables))
	for i, tab := range tables {
		keys := make([]uint64, 0, len(tab))
		for k := range tab {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		flat := make([]tuple.Tuple, 0, counts[i])
		for _, k := range keys {
			flat = append(flat, tab[k].tuples...)
		}
		out[i] = flat
	}
	return out
}

// ExtractForSpill removes the resident (current-generation) tuples of the
// given group and returns them as a snapshot tagged with the generation
// they belonged to. The group stays registered with an advanced generation
// and empty tables, so new tuples with the same partition ID accumulate
// into a fresh generation, as described in paper §3. Extracting a group
// with no resident tuples returns nil.
func (o *Operator) ExtractForSpill(id partition.ID) *GroupSnapshot {
	s := o.shardOf(id)
	g, ok := s.groups[id]
	if !ok || g.count == 0 {
		return nil
	}
	snap := &GroupSnapshot{ID: id, Gen: g.gen, Output: g.output, CumBytes: g.cum, Tuples: snapshotTables(g.tables, g.counts)}
	for _, l := range snap.Tuples {
		for i := range l {
			if !g.everSpilled || l[i].Ts > g.spilledTs {
				g.spilledTs = l[i].Ts
			}
			g.everSpilled = true
		}
	}
	snap.SpilledTs = g.spilledTs
	snap.EverSpilled = g.everSpilled
	s.totalSize -= g.size
	g.gen++
	g.size = 0
	g.count = 0
	for i := range g.tables {
		g.tables[i] = make(map[uint64]*keyList)
		g.counts[i] = 0
	}
	g.arena = arena{}
	return snap
}

// RemoveForRelocation removes the group entirely (resident tuples,
// generation counter, and lifetime output) and returns its snapshot for
// transfer to another machine. It returns nil if the group is not
// resident. Unlike spill extraction the generation is NOT advanced: the
// receiver continues the same generation, since the transferred tuples
// stay active in memory.
func (o *Operator) RemoveForRelocation(id partition.ID) *GroupSnapshot {
	s := o.shardOf(id)
	g, ok := s.groups[id]
	if !ok {
		return nil
	}
	snap := &GroupSnapshot{ID: id, Gen: g.gen, Output: g.output, CumBytes: g.cum, Tuples: snapshotTables(g.tables, g.counts)}
	snap.SpilledTs = g.spilledTs
	snap.EverSpilled = g.everSpilled
	s.totalSize -= g.size
	delete(s.groups, id)
	return snap
}

// Install registers a relocated group snapshot at this operator. New
// arrivals for the partition will be co-resident with (and join against)
// the installed tuples. Installing over an existing group is an error:
// the relocation protocol guarantees a group lives on exactly one machine.
func (o *Operator) Install(snap *GroupSnapshot) error {
	if len(snap.Tuples) != o.inputs {
		return fmt.Errorf("join: snapshot has %d inputs, operator has %d", len(snap.Tuples), o.inputs)
	}
	s := o.shardOf(snap.ID)
	if _, ok := s.groups[snap.ID]; ok {
		return fmt.Errorf("join: group %d already resident", snap.ID)
	}
	g := newGroup(snap.ID, snap.Gen, o.inputs)
	g.output = snap.Output
	for i, l := range snap.Tuples {
		for j := range l {
			t := l[j]
			kl := g.tables[i][t.Key]
			if kl == nil {
				kl = &keyList{}
				g.tables[i][t.Key] = kl
			}
			kl.append(&g.arena, t)
			g.size += t.MemSize()
			g.count++
			g.counts[i]++
		}
	}
	g.cum = snap.CumBytes
	if g.cum < g.size {
		g.cum = g.size
	}
	g.spilledTs = snap.SpilledTs
	g.everSpilled = snap.EverSpilled
	s.totalSize += g.size
	s.groups[snap.ID] = g
	return nil
}

// Merge folds a replicated group snapshot into this operator: if the
// group is absent it behaves exactly like Install; if it is already
// resident the snapshot's tuples are appended WITHOUT probing — they
// already produced their results at the old primary, so emitting joins
// here would duplicate output. A promoted follower uses it to turn warm
// standby copies into resident state, and a replication tail-flush uses
// it to land a demoted primary's final delta.
func (o *Operator) Merge(snap *GroupSnapshot) error {
	if len(snap.Tuples) != o.inputs {
		return fmt.Errorf("join: snapshot has %d inputs, operator has %d", len(snap.Tuples), o.inputs)
	}
	s := o.shardOf(snap.ID)
	g, ok := s.groups[snap.ID]
	if !ok {
		return o.Install(snap)
	}
	for i, l := range snap.Tuples {
		for j := range l {
			t := l[j]
			kl := g.tables[i][t.Key]
			if kl == nil {
				kl = &keyList{}
				g.tables[i][t.Key] = kl
			}
			kl.append(&g.arena, t)
			g.size += t.MemSize()
			g.count++
			g.counts[i]++
			s.totalSize += t.MemSize()
		}
	}
	if g.cum < snap.CumBytes {
		g.cum = snap.CumBytes
	}
	if g.cum < g.size {
		g.cum = g.size
	}
	if snap.SpilledTs > g.spilledTs {
		g.spilledTs = snap.SpilledTs
	}
	g.everSpilled = g.everSpilled || snap.EverSpilled
	return nil
}

// ResidentSnapshot returns the current-generation state of the group
// without removing it, used by the cleanup phase to merge the final
// memory-resident generation with the disk-resident ones. Returns nil if
// the group is not resident.
func (o *Operator) ResidentSnapshot(id partition.ID) *GroupSnapshot {
	g, ok := o.shardOf(id).groups[id]
	if !ok {
		return nil
	}
	return &GroupSnapshot{
		ID:          id,
		Gen:         g.gen,
		Output:      g.output,
		CumBytes:    g.cum,
		SpilledTs:   g.spilledTs,
		EverSpilled: g.everSpilled,
		Tuples:      snapshotTables(g.tables, g.counts),
	}
}

// ResidentIDs returns the sorted IDs of all resident groups.
func (o *Operator) ResidentIDs() []partition.ID {
	n := 0
	for _, s := range o.shards {
		n += len(s.groups)
	}
	ids := make([]partition.ID, 0, n)
	for _, s := range o.shards {
		for id := range s.groups {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

package memsys

// Store is the machine-wide data backing store: 8-byte words indexed by
// physical address / 8, materialized in 64 KiB chunks on first write.
// Machines are configured with the paper's memory sizes (megabytes per
// node) but scaled-down workloads touch a small fraction of that, so a
// dense []uint64 spends more host time zeroing memory at construction than
// the simulation spends running. Untouched chunks read as zero, matching
// the dense semantics exactly.
type Store struct {
	chunks [][]uint64
}

const (
	storeChunkShift = 13 // 8 Ki words = 64 KiB per chunk
	storeChunkWords = 1 << storeChunkShift
)

// NewStore creates a store covering the given number of words. No data
// memory is allocated until it is written.
func NewStore(words int) *Store {
	n := (words + storeChunkWords - 1) >> storeChunkShift
	return &Store{chunks: make([][]uint64, n)}
}

// Load returns word i. Reads of never-written chunks return zero without
// materializing them.
func (s *Store) Load(i uint64) uint64 {
	c := s.chunks[i>>storeChunkShift]
	if c == nil {
		return 0
	}
	return c[i&(storeChunkWords-1)]
}

// Word returns a stable pointer to word i, materializing its chunk if
// needed. Chunks are never moved or freed before Reset, so pointers taken
// before the simulation starts (workload initialization) stay valid
// throughout a run.
func (s *Store) Word(i uint64) *uint64 {
	ci := i >> storeChunkShift
	c := s.chunks[ci]
	if c == nil {
		c = make([]uint64, storeChunkWords)
		s.chunks[ci] = c
	}
	return &c[i&(storeChunkWords-1)]
}

// Reset drops all materialized chunks, returning the store to its
// freshly constructed all-zero state.
func (s *Store) Reset() {
	for i := range s.chunks {
		s.chunks[i] = nil
	}
}

// View is one node's window-quantized view of the backing store: writes
// buffer in a private append log and publish to the shared Store only when
// Flush runs (at lookahead-window boundaries, in node order, on the
// engine's coordinating goroutine). Reads see the node's own unflushed
// writes immediately — exact read-own-writes — while other nodes' writes
// become visible at the next boundary.
//
// This quantization is what lets both engines agree bit-for-bit: during a
// window no node can observe another node's in-window stores, so the
// parallel engine's concurrent window execution is indistinguishable from
// the sequential engine's interleaved one. It is safe for the simulated
// programs because conflicting cross-node accesses to the same word are
// serialized by the coherence protocol at least two network transits (two
// windows) apart, and synchronization spin loops tolerate a bounded,
// deterministic staleness of at most one window.
type View struct {
	s            *Store
	log          []writeRec
	writeThrough bool
}

type writeRec struct {
	idx uint64
	val uint64
}

// NewView returns an empty write-buffering view of s.
func NewView(s *Store) *View { return &View{s: s} }

// Load returns word i as seen by this node: its own latest unflushed write
// if any, else the shared store. The log stays short (a node's stores in
// one window), so the backward scan is cheaper than a map.
func (v *View) Load(i uint64) uint64 {
	for j := len(v.log) - 1; j >= 0; j-- {
		if v.log[j].idx == i {
			return v.log[j].val
		}
	}
	return v.s.Load(i)
}

// Store buffers a write of word i (publishes it immediately in
// write-through mode).
func (v *View) Store(i, x uint64) {
	if v.writeThrough {
		*v.s.Word(i) = x
		return
	}
	v.log = append(v.log, writeRec{idx: i, val: x})
}

// SetWriteThrough makes every Store publish to the shared backing
// immediately, bypassing the window log. Sampled runs use it: synchronous
// fast-forward chains complete cross-node transfers in zero engine time,
// so window-quantized visibility would expose stale data mid-chain, and
// sampled execution is serialized (single engine worker) so the eager
// publish is race-free. Equivalent to flushing after every store, minus
// the log traffic.
func (v *View) SetWriteThrough(wt bool) { v.writeThrough = wt }

// Flush publishes buffered writes to the shared store in program order and
// empties the log.
func (v *View) Flush() {
	for _, r := range v.log {
		*v.s.Word(r.idx) = r.val
	}
	v.log = v.log[:0]
}

// Pending reports how many buffered writes have not been flushed.
func (v *View) Pending() int { return len(v.log) }

// Reset empties the log and clears write-through mode.
func (v *View) Reset() {
	v.log = v.log[:0]
	v.writeThrough = false
}

// Package cpu models the compute processor and its secondary cache: an
// aggressive 400-MIPS processor with blocking reads, non-blocking merging
// writes and up to four outstanding misses, attached to a two-way
// set-associative write-back cache with 128-byte lines and critical-word-
// first fills (Section 3.2 of the paper).
package cpu

import (
	"flashsim/internal/arch"
)

// LineState is a processor-cache line state. Coherence is maintained by the
// directory protocol; the cache itself holds Invalid/Shared/Modified.
type LineState uint8

const (
	Invalid LineState = iota
	Shared
	Modified
)

func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	default:
		return "M"
	}
}

// Cache is the processor's secondary cache. It tracks tags and states only;
// data values live in the workload's backing store (timing-directed
// simulation).
type Cache struct {
	ways     int
	sets     int
	tags     []uint64 // (line | 1<<63) per way; 0 = empty
	state    []LineState
	lastUsed []uint64 // LRU stamps
	clock    uint64
}

// NewCache builds a cache of size bytes with the given associativity.
func NewCache(size, ways int) *Cache {
	sets := size / (arch.LineSize * ways)
	if sets <= 0 {
		panic("cpu: cache too small")
	}
	return &Cache{
		ways:     ways,
		sets:     sets,
		tags:     make([]uint64, sets*ways),
		state:    make([]LineState, sets*ways),
		lastUsed: make([]uint64, sets*ways),
	}
}

// Sets returns the number of cache sets.
func (c *Cache) Sets() int { return c.sets }

func (c *Cache) set(line uint64) int { return int(line % uint64(c.sets)) }

// Lookup returns the state of line, touching LRU on a hit.
func (c *Cache) Lookup(line uint64) LineState {
	base := c.set(line) * c.ways
	tag := line | 1<<63
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == tag {
			if c.state[base+w] == Invalid {
				return Invalid
			}
			c.clock++
			c.lastUsed[base+w] = c.clock
			return c.state[base+w]
		}
	}
	return Invalid
}

// SetState transitions an existing line (no-op if not resident). Used by
// interventions: invalidate or downgrade.
func (c *Cache) SetState(line uint64, s LineState) (had LineState) {
	base := c.set(line) * c.ways
	tag := line | 1<<63
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == tag {
			had = c.state[base+w]
			if s == Invalid {
				c.tags[base+w] = 0
			}
			c.state[base+w] = s
			return had
		}
	}
	return Invalid
}

// Fill inserts line in state s, returning an evicted victim if any. If the
// line is already resident (e.g. an upgrade fill) only its state changes.
func (c *Cache) Fill(line uint64, s LineState) (victim uint64, victimState LineState, evicted bool) {
	base := c.set(line) * c.ways
	tag := line | 1<<63
	c.clock++
	// Already resident?
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == tag {
			c.state[base+w] = s
			c.lastUsed[base+w] = c.clock
			return 0, Invalid, false
		}
	}
	// Free way?
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == 0 {
			c.tags[base+w] = tag
			c.state[base+w] = s
			c.lastUsed[base+w] = c.clock
			return 0, Invalid, false
		}
	}
	// Evict LRU.
	lru := 0
	for w := 1; w < c.ways; w++ {
		if c.lastUsed[base+w] < c.lastUsed[base+lru] {
			lru = w
		}
	}
	victim = c.tags[base+lru] &^ (1 << 63)
	victimState = c.state[base+lru]
	c.tags[base+lru] = tag
	c.state[base+lru] = s
	c.lastUsed[base+lru] = c.clock
	return victim, victimState, true
}

// Reset empties the cache.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = 0
		c.state[i] = Invalid
		c.lastUsed[i] = 0
	}
	c.clock = 0
}

// SameSet reports whether two lines map to the same cache set.
func (c *Cache) SameSet(a, b uint64) bool { return c.set(a) == c.set(b) }

// Lines returns the resident lines and their states (for invariant checks).
func (c *Cache) Lines() map[uint64]LineState {
	out := make(map[uint64]LineState)
	for i, tag := range c.tags {
		if tag != 0 && c.state[i] != Invalid {
			out[tag&^(1<<63)] = c.state[i]
		}
	}
	return out
}

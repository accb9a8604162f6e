package exp

import (
	"sync"

	"flashsim/internal/arch"
	"flashsim/internal/core"
)

// MachinePool recycles machines across runs of a sweep. Machine
// construction pays for protocol assembly, store and component allocation,
// and engine setup on every core.New; a sweep that runs hundreds of
// simulations over a handful of distinct configurations gets the same
// machines back from the pool, wiped by core.Machine.Reset (a property
// TestMachineResetDeterminism pins: a recycled machine is bit-identical to
// a fresh one). Machines are pooled under core.PoolKeyFor, so host-side
// execution choices (engine, PP dispatch) never mix.
type MachinePool struct {
	mu   sync.Mutex
	idle map[string][]*core.Machine

	// Hits and Misses count Get calls served from the pool vs. built
	// fresh; read them after the sweep (not synchronized with Get).
	Hits, Misses int
}

// NewMachinePool returns an empty pool.
func NewMachinePool() *MachinePool {
	return &MachinePool{idle: map[string][]*core.Machine{}}
}

// Get returns a machine for cfg: a recycled one when available, freshly
// built otherwise. The caller owns it until Put.
func (p *MachinePool) Get(cfg arch.Config) (*core.Machine, error) {
	key := core.PoolKeyFor(cfg)
	p.mu.Lock()
	if list := p.idle[key]; len(list) > 0 {
		m := list[len(list)-1]
		p.idle[key] = list[:len(list)-1]
		p.Hits++
		p.mu.Unlock()
		return m, nil
	}
	p.Misses++
	p.mu.Unlock()
	return core.New(cfg)
}

// Put wipes m and returns it to the pool. m may be in any state — a run
// that ended in an error is fine; Reset restores the freshly constructed
// state.
func (p *MachinePool) Put(m *core.Machine) {
	m.Reset()
	key := m.PoolKey()
	p.mu.Lock()
	p.idle[key] = append(p.idle[key], m)
	p.mu.Unlock()
}

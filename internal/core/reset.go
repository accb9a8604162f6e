package core

import (
	"fmt"

	"flashsim/internal/arch"
	"flashsim/internal/network"
	"flashsim/internal/ppsim"
)

// Reset returns the machine to its freshly constructed state — engine
// clock at zero, store all-zero, caches cold, controllers idle, statistics
// cleared — so experiment drivers can recycle a machine across runs
// instead of paying core.New (protocol build, store and component
// allocation) per run. Host-side attachments survive where they are
// construction choices (engine kind, PP dispatch backend); tracers and
// metrics registries attached by the previous user stay attached and
// should be re-set by the next user if unwanted.
func (m *Machine) Reset() {
	m.Eng.Reset()
	m.Backing.Reset()
	for i, n := range m.Nodes {
		m.Views[i].Reset()
		if m.Cfg.Sample.Enabled() {
			// cpu.New put sampled machines' views in write-through mode;
			// View.Reset cleared it.
			m.Views[i].SetWriteThrough(true)
		}
		n.CPU.Reset()
		n.Mem.Reset()
		m.Net.Port(n.CPU.ID, nil).Reset()
		if n.Magic != nil {
			n.Magic.Reset()
		}
		if n.Ideal != nil {
			n.Ideal.Reset()
		}
	}
	m.Elapsed = 0
	m.finAt = nil
	m.finDone = nil
}

// PoolKeyFor returns the recycling identity for machines built from cfg:
// the simulated-behavior key plus the resolved host-side execution choices
// (engine kind, PP dispatch backend). Two configs with equal pool keys
// build machines that are interchangeable after Reset, both in simulated
// behavior and in host-side execution strategy. The config is
// normalized exactly as New normalizes it (ideal timing override, derived
// network transit, environment-resolved sampling), so keys computed before
// construction match keys computed from a built machine's Cfg.
func PoolKeyFor(cfg arch.Config) string {
	return fmt.Sprintf("%s engine=%d dispatch=%v",
		SimKeyFor(cfg), resolveEngine(cfg.Engine), ppsim.BackendFor(cfg.PPDispatch))
}

// SimKeyFor returns cfg's simulated-behavior key after applying the same
// normalization New applies (ideal timing override, derived network
// transit, environment-resolved sampling): the key of the machine New
// would actually build. Two configs with equal keys produce bit-identical
// simulations regardless of host-side choices; the experiment result cache
// keys on this.
func SimKeyFor(cfg arch.Config) string {
	if cfg.Kind == arch.KindIdeal {
		ideal := arch.IdealTiming()
		ideal.MemAccess = cfg.Timing.MemAccess
		ideal.MemLineBusy = cfg.Timing.MemLineBusy
		cfg.Timing = ideal
	}
	if cfg.Timing.NetTransit == 0 {
		cfg.Timing.NetTransit = uint32(network.AvgTransitFor(cfg.Nodes))
	}
	cfg.Sample = resolveSample(cfg.Sample)
	if cfg.Kind == arch.KindIdeal {
		cfg.Sample = arch.SampleSpec{}
	}
	return cfg.SimKey()
}

// PoolKey returns the machine's recycling identity; see PoolKeyFor.
func (m *Machine) PoolKey() string { return PoolKeyFor(m.Cfg) }

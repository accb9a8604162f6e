// Package memsys models one node's main-memory system: a single memory
// controller with a one-request queue and a 14-cycle access time to the
// first 8 bytes (Table 3.2), streaming the remainder of a 128-byte line over
// the 64-bit path. Both FLASH and the ideal machine use this model; the
// paper models memory contention accurately on both.
package memsys

import (
	"flashsim/internal/arch"
	"flashsim/internal/sim"
	"flashsim/internal/trace"
)

// Memory is one node's memory controller.
type Memory struct {
	t    arch.Timing
	srv  sim.Server
	node arch.NodeID

	tr     *trace.Tracer
	series *trace.TimeSeries

	// Stats.
	Reads       uint64
	Writes      uint64
	SpecReads   uint64 // speculative reads issued by the inbox
	SpecUseless uint64 // speculative reads whose data was not used
}

// New creates a memory controller with the given timing.
func New(t arch.Timing) *Memory {
	return &Memory{t: t}
}

// SetTracer attaches tr (nil detaches) and records the owning node id for
// emitted reservation events.
func (m *Memory) SetTracer(tr *trace.Tracer, node arch.NodeID) {
	m.tr = tr
	m.node = node
}

// EnableSampling turns on windowed occupancy sampling with the given window
// width in cycles.
func (m *Memory) EnableSampling(window uint64) {
	m.series = trace.NewTimeSeries(window)
}

// Series returns the occupancy sampler, or nil when sampling is off.
func (m *Memory) Series() *trace.TimeSeries { return m.series }

// observe records one reservation in the sampler and the event trace.
func (m *Memory) observe(kind trace.Kind, start sim.Cycle) {
	m.series.Add(uint64(start), uint64(m.t.MemLineBusy))
	if m.tr.Active() {
		m.tr.Emit(trace.Event{
			Cycle: uint64(start), Dur: uint64(m.t.MemLineBusy),
			Node: int32(m.node), Kind: kind,
		})
	}
}

// Read reserves a full-line read starting no earlier than at. It returns
// when the first 8 bytes are available and when the controller frees.
func (m *Memory) Read(at sim.Cycle) (firstWord, done sim.Cycle) {
	start, end := m.srv.Reserve(at, sim.Cycle(m.t.MemLineBusy))
	m.Reads++
	m.observe(trace.KindMemRead, start)
	return start + sim.Cycle(m.t.MemAccess), end
}

// SpeculativeRead is a Read issued by the inbox before the handler runs
// (Section 5.1). The caller later marks it useless if the data was not sent.
func (m *Memory) SpeculativeRead(at sim.Cycle) (firstWord, done sim.Cycle) {
	fw, done := m.Read(at)
	m.SpecReads++
	return fw, done
}

// MarkUseless records that the most recent speculative read fetched data
// that was not used (the line was dirty elsewhere, or the request was
// NAKed).
func (m *Memory) MarkUseless() { m.SpecUseless++ }

// Write reserves a full-line write starting no earlier than at and returns
// when the controller frees.
func (m *Memory) Write(at sim.Cycle) (done sim.Cycle) {
	start, end := m.srv.Reserve(at, sim.Cycle(m.t.MemLineBusy))
	m.Writes++
	m.observe(trace.KindMemWrite, start)
	return end
}

// Reset returns the controller to its freshly constructed state, keeping
// timing and attachments.
func (m *Memory) Reset() {
	m.srv = sim.Server{Strict: m.srv.Strict}
	m.Reads, m.Writes, m.SpecReads, m.SpecUseless = 0, 0, 0, 0
}

// Occupancy returns the controller's busy fraction over total cycles.
func (m *Memory) Occupancy(total sim.Cycle) float64 { return m.srv.Occ.Fraction(total) }

// BusyCycles returns total busy cycles.
func (m *Memory) BusyCycles() sim.Cycle { return m.srv.Occ.Busy }

// Accesses returns the total number of line accesses.
func (m *Memory) Accesses() uint64 { return m.Reads + m.Writes }

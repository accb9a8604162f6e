package sim_test

import (
	"testing"

	"flashsim/internal/sim"
)

// backendCase builds one engine behind the shared Backend interface. The
// conformance suite runs every scenario against both engines and demands
// identical observable behaviour — the edge cases here are the contract the
// sharded backend must honor bit-for-bit.
type backendCase struct {
	name string
	mk   func(nodes int, window sim.Cycle) sim.Backend
}

func backendCases() []backendCase {
	return []backendCase{
		{"seq", func(nodes int, window sim.Cycle) sim.Backend {
			return sim.NewEngine()
		}},
		{"sharded", func(nodes int, window sim.Cycle) sim.Backend {
			return sim.NewShardedEngine(nodes, window)
		}},
		{"sharded-1worker", func(nodes int, window sim.Cycle) sim.Backend {
			e := sim.NewShardedEngine(nodes, window)
			e.Workers = 1
			return e
		}},
	}
}

// TestConformanceStopInsideFifo pins Stop called from a same-cycle FIFO
// event: the current event completes, later FIFO entries and future events
// stay pending.
func TestConformanceStopInsideFifo(t *testing.T) {
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			b := bc.mk(1, 10)
			s := b.Node(0)
			var order []int
			s.At(5, func() {
				order = append(order, 1)
				s.At(5, func() {
					order = append(order, 2)
					s.Stop()
				})
				s.At(5, func() { order = append(order, 3) })
			})
			s.At(9, func() { order = append(order, 4) })
			if err := b.Run(); err != nil {
				t.Fatal(err)
			}
			if len(order) != 2 || order[0] != 1 || order[1] != 2 {
				t.Fatalf("order = %v, want [1 2]", order)
			}
			if got := b.Pending(); got != 2 {
				t.Fatalf("Pending = %d, want 2 (one fifo entry, one future event)", got)
			}
			if got := b.ExecutedEvents(); got != 2 {
				t.Fatalf("ExecutedEvents = %d, want 2", got)
			}
		})
	}
}

// TestConformanceAtExactlyLimit pins the limit boundary: an event at
// exactly Limit runs; anything beyond aborts with ErrLimit.
func TestConformanceAtExactlyLimit(t *testing.T) {
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			b := bc.mk(1, 10)
			ran := false
			b.Node(0).At(42, func() { ran = true })
			b.SetLimit(42)
			if err := b.Run(); err != nil {
				t.Fatal(err)
			}
			if !ran {
				t.Fatal("event at exactly Limit did not run")
			}

			b = bc.mk(1, 10)
			ran = false
			b.Node(0).At(43, func() { ran = true })
			b.SetLimit(42)
			if err := b.Run(); err != sim.ErrLimit {
				t.Fatalf("err = %v, want ErrLimit", err)
			}
			if ran {
				t.Fatal("event beyond Limit ran")
			}
			if got := b.Pending(); got != 1 {
				t.Fatalf("Pending = %d, want 1", got)
			}
		})
	}
}

// TestConformanceFifoCompaction pins FIFO ordering across the fifoPos
// compaction threshold: a same-cycle chain of several thousand events must
// dispatch strictly in insertion order on both engines.
func TestConformanceFifoCompaction(t *testing.T) {
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			const chain = 5000
			b := bc.mk(1, 10)
			s := b.Node(0)
			var got []int
			var step func(i int)
			step = func(i int) {
				got = append(got, i)
				if i+1 < chain {
					s.At(s.Now(), func() { step(i + 1) })
				}
			}
			after := false
			s.At(3, func() { step(0) })
			s.At(4, func() { after = true })
			if err := b.Run(); err != nil {
				t.Fatal(err)
			}
			if len(got) != chain {
				t.Fatalf("dispatched %d, want %d", len(got), chain)
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("got[%d] = %d: FIFO order violated across compaction", i, v)
				}
			}
			if !after {
				t.Fatal("next-cycle event did not run")
			}
		})
	}
}

// TestConformanceDeliveryOrdering pins the shared ordering rule: at a given
// cycle, deliveries dispatch before locally scheduled events, ordered by
// (source node, send sequence) regardless of the order the Deliver calls
// were made.
func TestConformanceDeliveryOrdering(t *testing.T) {
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			b := bc.mk(3, 10)
			n1 := b.Node(1)
			var order []string
			n1.At(30, func() { order = append(order, "localA") })
			n1.At(30, func() { order = append(order, "localB") })
			// Deliver calls arrive out of source order; dispatch must not
			// care.
			b.Node(2).Deliver(30, 2, 1, 1, func() { order = append(order, "d2.1") })
			b.Node(2).Deliver(30, 2, 1, 2, func() { order = append(order, "d2.2") })
			b.Node(0).Deliver(30, 0, 1, 1, func() { order = append(order, "d0.1") })
			if err := b.Run(); err != nil {
				t.Fatal(err)
			}
			want := []string{"d0.1", "d2.1", "d2.2", "localA", "localB"}
			if len(order) != len(want) {
				t.Fatalf("order = %v, want %v", order, want)
			}
			for i := range want {
				if order[i] != want[i] {
					t.Fatalf("order = %v, want %v", order, want)
				}
			}
		})
	}
}

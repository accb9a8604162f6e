package sim_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"flashsim/internal/memsys"
	"flashsim/internal/sim"
)

// The differential torture test drives both engines through an identical
// randomized workload — per-node local event chains, cross-node deliveries
// with lookahead-respecting latencies, and window-quantized stores through
// memsys views — and demands bit-identical results: per-node event logs,
// final store contents, executed-event counts, and the final clock.

const (
	tortureNodes  = 8
	tortureWindow = sim.Cycle(16)
	tortureWords  = 64
	tortureSteps  = 300 // local events per node
)

type tortureResult struct {
	logs     [][]uint64
	words    []uint64
	executed uint64
	sends    uint64 // cross-node Deliver calls issued
	now      sim.Cycle
	err      error
}

func xorshift(s *uint64) uint64 {
	x := *s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = x
	return x
}

func runTorture(b sim.Backend, limit sim.Cycle) tortureResult {
	store := memsys.NewStore(tortureWords * 8)
	views := make([]*memsys.View, tortureNodes)
	for i := range views {
		views[i] = memsys.NewView(store)
	}
	b.SetQuantum(tortureWindow, func() {
		for _, v := range views {
			v.Flush()
		}
	})

	logs := make([][]uint64, tortureNodes)
	rngs := make([]uint64, tortureNodes)
	seqs := make([]uint64, tortureNodes)
	for i := range rngs {
		rngs[i] = uint64(0x9e3779b97f4a7c15 * uint64(i+1))
	}

	var tick func(i, n int)
	tick = func(i, n int) {
		s := b.Node(i)
		now := s.Now()
		r := xorshift(&rngs[i])
		logs[i] = append(logs[i], uint64(now)<<24|uint64(i)<<16|r&0xffff)
		switch r % 4 {
		case 0:
			views[i].Store(r%tortureWords, uint64(now)<<8|uint64(i))
		case 1:
			// Log the value read so cross-node visibility timing is pinned.
			logs[i] = append(logs[i], views[i].Load((r>>4)%tortureWords)<<1|1)
		case 2:
			dst := int((r >> 8) % tortureNodes)
			at := now + tortureWindow + sim.Cycle(r%50)
			seqs[i]++
			payload := r
			src := i
			s.Deliver(at, src, dst, seqs[i], func() {
				d := b.Node(dst)
				logs[dst] = append(logs[dst], uint64(d.Now())<<24|uint64(src)<<4|0xf)
				views[dst].Store(payload%tortureWords, payload)
				d.At(d.Now()+3, func() {
					logs[dst] = append(logs[dst], uint64(d.Now())<<24|0xabc)
				})
			})
		}
		if n > 0 {
			s.After(1+sim.Cycle(r%37), func() { tick(i, n-1) })
		}
	}

	for i := 0; i < tortureNodes; i++ {
		i := i
		b.Node(i).At(sim.Cycle(1+i), func() { tick(i, tortureSteps) })
	}
	if limit != 0 {
		b.SetLimit(limit)
	}
	res := tortureResult{err: b.Run()}
	// Mirror core.Run: flush straggler buffered writes after the run so the
	// final store state is comparable.
	for _, v := range views {
		v.Flush()
	}
	res.logs = logs
	res.words = make([]uint64, tortureWords)
	for w := range res.words {
		res.words[w] = store.Load(uint64(w))
	}
	res.executed = b.ExecutedEvents()
	for _, s := range seqs {
		res.sends += s
	}
	res.now = b.Now()
	return res
}

func compareTorture(t *testing.T, name string, want, got tortureResult) {
	t.Helper()
	if got.err != want.err {
		t.Fatalf("%s: err = %v, want %v", name, got.err, want.err)
	}
	if got.executed != want.executed {
		t.Errorf("%s: executed = %d, want %d", name, got.executed, want.executed)
	}
	if got.now != want.now {
		t.Errorf("%s: now = %d, want %d", name, got.now, want.now)
	}
	for i := range want.logs {
		if !reflect.DeepEqual(got.logs[i], want.logs[i]) {
			a, b := want.logs[i], got.logs[i]
			n := len(a)
			if len(b) < n {
				n = len(b)
			}
			d := n
			for j := 0; j < n; j++ {
				if a[j] != b[j] {
					d = j
					break
				}
			}
			t.Fatalf("%s: node %d log diverges at entry %d/%d (want len %d, got len %d)",
				name, i, d, n, len(a), len(b))
		}
	}
	if !reflect.DeepEqual(got.words, want.words) {
		t.Errorf("%s: final store contents differ", name)
	}
}

// TestShardedDifferentialTorture is the core bit-identity check: the same
// workload on the sequential engine and on the sharded engine with several
// worker-pool sizes must produce identical observable behaviour.
func TestShardedDifferentialTorture(t *testing.T) {
	want := runTorture(sim.NewEngine(), 0)
	for _, workers := range []int{0, 1, 2, tortureNodes} {
		e := sim.NewShardedEngine(tortureNodes, tortureWindow)
		e.Workers = workers
		got := runTorture(e, 0)
		compareTorture(t, "sharded/workers="+string(rune('0'+workers)), want, got)
	}
}

// TestShardedDifferentialTortureWithLimit checks the two engines agree when
// the run aborts at a cycle limit mid-workload.
func TestShardedDifferentialTortureWithLimit(t *testing.T) {
	const limit = sim.Cycle(1500)
	want := runTorture(sim.NewEngine(), limit)
	if want.err != sim.ErrLimit {
		t.Fatalf("seq err = %v, want ErrLimit (limit too high for torture?)", want.err)
	}
	for _, workers := range []int{1, 4} {
		e := sim.NewShardedEngine(tortureNodes, tortureWindow)
		e.Workers = workers
		got := runTorture(e, limit)
		compareTorture(t, "sharded-limit", want, got)
	}
}

// TestShardedWorkerPoolDeterminism runs the sharded engine repeatedly with
// different pool sizes and checks the results against each other — worker
// count and goroutine interleaving must never leak into simulated behaviour.
func TestShardedWorkerPoolDeterminism(t *testing.T) {
	var want tortureResult
	for rep, workers := range []int{1, 2, 3, 0, 0, 0} {
		e := sim.NewShardedEngine(tortureNodes, tortureWindow)
		e.Workers = workers
		got := runTorture(e, 0)
		if rep == 0 {
			want = got
			continue
		}
		compareTorture(t, "rep", want, got)
	}
}

// TestShardedLookaheadViolationPanics pins the guard rail: a delivery that
// lands inside the currently executing window (transit below the lookahead
// window) must panic rather than silently break causality.
func TestShardedLookaheadViolationPanics(t *testing.T) {
	e := sim.NewShardedEngine(2, 10)
	e.Workers = 1 // keep the panic on the coordinator goroutine
	s := e.Node(0)
	s.At(5, func() {
		s.Deliver(7, 0, 1, 1, func() {})
	})
	defer func() {
		if recover() == nil {
			t.Fatal("in-window delivery did not panic")
		}
	}()
	_ = e.Run()
}

// TestShardedStopFromShard checks Stop called from inside a shard event
// halts the whole engine promptly and Run returns cleanly.
func TestShardedStopFromShard(t *testing.T) {
	e := sim.NewShardedEngine(4, 10)
	var after bool
	e.Node(2).At(25, func() { e.Node(2).Stop() })
	e.Node(2).At(26, func() { after = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if after {
		t.Fatal("event on stopping shard after Stop ran")
	}
	if e.Pending() == 0 {
		t.Fatal("pending event discarded by Stop")
	}
}

// TestBarrierViolationPanicNamesPair pins the guard rail's message shape:
// the panic names the offending (src,dst) pair, the window it landed in,
// and the lookahead bound it undercut.
func TestBarrierViolationPanicNamesPair(t *testing.T) {
	e := sim.NewShardedEngine(2, 10)
	e.Workers = 1
	s := e.Node(0)
	s.At(5, func() {
		s.Deliver(7, 0, 1, 1, func() {})
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("in-window delivery did not panic")
		}
		msg := fmt.Sprint(r)
		for _, want := range []string{"0->1", "at cycle 7", "window ending 10", "pair lookahead 10"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q missing %q", msg, want)
			}
		}
	}()
	_ = e.Run()
}

// runTortureEcho is the echo-chain torture: per-node event chains whose
// deliveries travel at exactly the lookahead window (the minimum transit
// the engine permits) and whose handlers echo straight back to the sender
// — the tightest causal loops the synchronization contract allows. quantum
// 0 runs with no store-visibility flush at all; a nonzero quantum installs
// the flush with memsys views. gap bounds each node's local chain spacing:
// large gaps leave lone event-holders with long runs of empty windows,
// small gaps pack several events per node into one window so echoes
// interleave with them.
func runTortureEcho(b sim.Backend, quantum sim.Cycle, gap uint64) tortureResult {
	var store *memsys.Store
	var views []*memsys.View
	if quantum != 0 {
		store = memsys.NewStore(tortureWords * 8)
		views = make([]*memsys.View, tortureNodes)
		for i := range views {
			views[i] = memsys.NewView(store)
		}
		b.SetQuantum(quantum, func() {
			for _, v := range views {
				v.Flush()
			}
		})
	}

	logs := make([][]uint64, tortureNodes)
	rngs := make([]uint64, tortureNodes)
	seqs := make([]uint64, tortureNodes)
	for i := range rngs {
		rngs[i] = uint64(0x9e3779b97f4a7c15 * uint64(i+1))
	}
	// send dispatches a minimum-transit delivery src->dst; its handler logs,
	// optionally stores, and echoes back to src with depth-1 until the chain
	// dies, producing src->dst->src->... ping-pong at the lookahead bound.
	var send func(src, dst, depth int, payload uint64)
	send = func(src, dst, depth int, payload uint64) {
		s := b.Node(src)
		at := s.Now() + tortureWindow
		seqs[src]++
		s.Deliver(at, src, dst, seqs[src], func() {
			d := b.Node(dst)
			logs[dst] = append(logs[dst], uint64(d.Now())<<24|uint64(src)<<8|uint64(depth))
			if views != nil {
				views[dst].Store(payload%tortureWords, payload^uint64(d.Now()))
			}
			if depth > 0 {
				send(dst, src, depth-1, payload>>1)
			}
		})
	}
	var tick func(i, n int)
	tick = func(i, n int) {
		s := b.Node(i)
		r := xorshift(&rngs[i])
		logs[i] = append(logs[i], uint64(s.Now())<<24|uint64(i)<<16|r&0xffff)
		switch r % 3 {
		case 0:
			send(i, int((r>>8)%tortureNodes), int(r>>4%4), r)
		case 1:
			if views != nil {
				logs[i] = append(logs[i], views[i].Load((r>>4)%tortureWords)<<1|1)
			}
		}
		if n > 0 {
			s.After(1+sim.Cycle(r%gap), func() { tick(i, n-1) })
		}
	}
	for i := 0; i < tortureNodes; i++ {
		i := i
		b.Node(i).At(sim.Cycle(1+i), func() { tick(i, tortureSteps/3) })
	}
	res := tortureResult{err: b.Run()}
	res.logs = logs
	if store != nil {
		for _, v := range views {
			v.Flush()
		}
		res.words = make([]uint64, tortureWords)
		for w := range res.words {
			res.words[w] = store.Load(uint64(w))
		}
	}
	res.executed = b.ExecutedEvents()
	for _, s := range seqs {
		res.sends += s
	}
	res.now = b.Now()
	return res
}

// TestShardedDifferentialTortureEchoFlushFree runs sparse minimum-transit
// echo chains with no store flush and no limit: most windows are empty on
// most shards, and every echo lands exactly one window after its send.
func TestShardedDifferentialTortureEchoFlushFree(t *testing.T) {
	want := runTortureEcho(sim.NewEngine(), 0, 499)
	for _, workers := range []int{1, 2, tortureNodes} {
		e := sim.NewShardedEngine(tortureNodes, tortureWindow)
		e.Workers = workers
		got := runTortureEcho(e, 0, 499)
		compareTorture(t, fmt.Sprintf("echo-flush-free/workers=%d", workers), want, got)
	}
}

// TestShardedDifferentialTortureEchoGated packs dense local chains and
// minimum-transit echoes into the same windows, with window-quantized
// stores through memsys views, so each round trip (two windows) interleaves
// with local events and store flushes.
func TestShardedDifferentialTortureEchoGated(t *testing.T) {
	want := runTortureEcho(sim.NewEngine(), tortureWindow, 24)
	for _, workers := range []int{1, 2, tortureNodes} {
		e := sim.NewShardedEngine(tortureNodes, tortureWindow)
		e.Workers = workers
		got := runTortureEcho(e, tortureWindow, 24)
		compareTorture(t, fmt.Sprintf("echo-gated/workers=%d", workers), want, got)
	}
}

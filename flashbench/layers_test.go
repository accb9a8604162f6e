package main

import (
	"bytes"
	"compress/gzip"
	"reflect"
	"testing"
)

// Synthetic stacks, leaf first, as parseProfile returns them.
var (
	engineRoot = []string{
		"flashsim/internal/sim.(*Engine).Run",
		"flashsim/internal/core.(*Machine).finishRun",
		"flashsim/internal/workload.(*World).Run",
		"main.simulate",
		"runtime.main",
	}
	threadRoot = []string{
		"flashsim/internal/workload.(*World).newThread.func1",
		"iter.Pull[go.shape.[]flashsim/internal/cpu.Ref].func1",
		"runtime.corostart",
	}
)

func stack(leaf []string, root []string) []string {
	return append(append([]string{}, leaf...), root...)
}

func TestAttribute(t *testing.T) {
	cases := []struct {
		name  string
		stack []string
		want  charge
	}{
		{
			name: "innermost flashsim frame wins over its flashsim callers",
			stack: stack([]string{
				"flashsim/internal/ppsim.(*PP).step",
				"flashsim/internal/magic.(*Magic).runHandler",
			}, engineRoot),
			want: charge{layer: "ppsim"},
		},
		{
			name: "inlined generic method keeps its package",
			stack: stack([]string{
				"flashsim/internal/sim.(*queue).pop",
			}, engineRoot),
			want: charge{layer: "sim"},
		},
		{
			name: "runtime and stdlib callees are charged to their caller",
			stack: stack([]string{
				"runtime.memmove",
				"slices.Clone[...]",
				"flashsim/internal/network.(*Port).Send",
			}, engineRoot),
			want: charge{layer: "network"},
		},
		{
			name: "allocation under a flashsim frame",
			stack: stack([]string{
				"runtime.nextFreeFast",
				"runtime.mallocgc",
				"runtime.newobject",
				"flashsim/internal/magic.(*Magic).tryDispatch",
			}, engineRoot),
			want: charge{layer: "magic", alloc: true},
		},
		{
			name: "GC assist under a flashsim frame",
			stack: stack([]string{
				"runtime.scanobject",
				"runtime.gcDrainN",
				"runtime.gcAssistAlloc",
				"runtime.mallocgc",
				"flashsim/internal/network.(*Port).Send",
			}, engineRoot),
			want: charge{layer: "network", alloc: true},
		},
		{
			name: "coroutine switch from the workload's yield",
			stack: stack([]string{
				"runtime.coroswitch",
				"iter.Pull[go.shape.[]flashsim/internal/cpu.Ref].func1.1",
				"flashsim/internal/workload.(*Ctx).flush",
				"flashsim/internal/apps.BuildLU.func4",
			}, threadRoot),
			want: charge{layer: "workload", coro: true},
		},
		{
			name: "coroutine frames above the charged frame are callers, not cross-cuts",
			stack: stack([]string{
				"flashsim/internal/apps.BuildLU.func4",
			}, threadRoot),
			want: charge{layer: "apps"},
		},
		{
			name:  "coroutine switch on the system stack has no flashsim frame",
			stack: []string{"internal/runtime/atomic.(*Uint32).CompareAndSwap", "runtime.coroswitch_m", "runtime.mcall"},
			want:  charge{coro: true},
		},
		{
			name:  "background GC has no flashsim frame",
			stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"},
			want:  charge{alloc: true},
		},
		{
			name:  "scheduler work is unattributed and in no cross-cut",
			stack: []string{"runtime.futex", "runtime.notesleep", "runtime.findRunnable", "runtime.schedule"},
			want:  charge{},
		},
		{
			name: "flashsim packages outside the layer list are other",
			stack: stack([]string{
				"flashsim/internal/trace.(*Histogram).Add",
				"flashsim/internal/cpu.(*CPU).retire",
			}, engineRoot),
			want: charge{layer: "other"},
		},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("%s: attribute = %+v, want %+v", c.name, got, c.want)
		}
	}
}

func TestLayerShares(t *testing.T) {
	s := newLayerShares()
	s.add([]stackSample{
		{stack: stack([]string{"runtime.mallocgc", "flashsim/internal/magic.f"}, engineRoot), count: 2},
		{stack: []string{"runtime.coroswitch_m", "runtime.mcall"}, count: 1},
		{stack: stack([]string{"flashsim/internal/cpu.g"}, engineRoot), count: 1},
	})
	if s.samples != 4 || s.self["magic"] != 2 || s.self["cpu"] != 1 || s.unattributed != 1 {
		t.Fatalf("shares = %+v", s)
	}
	if got := s.pct(s.alloc); got != 50 {
		t.Errorf("alloc share = %v%%, want 50%%", got)
	}
	if got := s.pct(s.coro); got != 25 {
		t.Errorf("coro share = %v%%, want 25%%", got)
	}
}

// pb is a minimal protobuf encoder for building test profiles.
type pb []byte

func (b pb) varint(x uint64) pb {
	for x >= 0x80 {
		b = append(b, byte(x)|0x80)
		x >>= 7
	}
	return append(b, byte(x))
}

func (b pb) uint(field int, x uint64) pb { return b.varint(uint64(field)<<3 | 0).varint(x) }

func (b pb) bytes(field int, data []byte) pb {
	return append(b.varint(uint64(field)<<3|2).varint(uint64(len(data))), data...)
}

func (b pb) packed(field int, xs ...uint64) pb {
	var p pb
	for _, x := range xs {
		p = p.varint(x)
	}
	return b.bytes(field, p)
}

func TestParseProfile(t *testing.T) {
	var prof pb
	// String table: index 0 is always "".
	for _, s := range []string{"", "samples", "flashsim/internal/magic.leaf", "flashsim/internal/magic.inliner", "flashsim/internal/sim.root"} {
		prof = prof.bytes(6, []byte(s))
	}
	for id, name := range map[uint64]uint64{1: 2, 2: 3, 3: 4} {
		prof = prof.bytes(5, pb{}.uint(1, id).uint(2, name))
	}
	// Location 10 inlines function 1 into function 2; location 11 is
	// function 3 and carries a fixed-width address field to skip.
	prof = prof.bytes(4, pb{}.uint(1, 10).bytes(4, pb{}.uint(1, 1).uint(2, 7)).bytes(4, pb{}.uint(1, 2)))
	loc11 := pb{}.uint(1, 11)
	loc11 = append(loc11.varint(3<<3|1), 1, 2, 3, 4, 5, 6, 7, 8)
	prof = prof.bytes(4, loc11.bytes(4, pb{}.uint(1, 3)))
	// One sample with packed fields, one with unpacked location ids.
	prof = prof.bytes(2, pb{}.packed(1, 10, 11).packed(2, 3, 30000000))
	prof = prof.bytes(2, pb{}.uint(1, 11).uint(2, 1).uint(2, 10000000))

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof)
	zw.Close()
	got, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []stackSample{
		{stack: []string{"flashsim/internal/magic.leaf", "flashsim/internal/magic.inliner", "flashsim/internal/sim.root"}, count: 3},
		{stack: []string{"flashsim/internal/sim.root"}, count: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseProfile = %+v, want %+v", got, want)
	}
	if _, err := parseProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

package main

import "strings"

// layers are the simulator's modules, named after its packages under
// flashsim/internal. Samples whose innermost flashsim frame lies in any
// other package (arch, trace, metrics, ...) are charged to "other".
var layers = []string{
	"apps", "workload", "cpu", "magic", "ppsim", "protocol",
	"network", "memsys", "sim", "core", "stats", "other",
}

const modulePrefix = "flashsim/"

// charge is where attribute puts one profile sample.
type charge struct {
	// layer is the module owning the innermost flashsim frame, or "" when
	// the stack has no flashsim frame at all (unattributed runtime work,
	// such as background GC).
	layer string
	// alloc and coro are the runtime cross-cuts: the frames below the
	// charged one (or the whole stack, when unattributed) are in malloc or
	// GC, or in a coroutine switch.
	alloc, coro bool
}

// attribute charges one sample, given its stack of function names leaf
// first, to the innermost flashsim frame: runtime and standard-library
// callees count against their flashsim caller.
func attribute(stack []string) charge {
	callees := stack
	var c charge
	for i, fn := range stack {
		if strings.HasPrefix(fn, modulePrefix) {
			c.layer = layerOf(fn)
			callees = stack[:i]
			break
		}
	}
	for _, fn := range callees {
		c.alloc = c.alloc || isAllocOrGC(fn)
		c.coro = c.coro || isCoroSwitch(fn)
	}
	return c
}

// layerOf maps a fully qualified flashsim function name, such as
// "flashsim/internal/magic.(*Magic).tryDispatch.func1", to its layer.
func layerOf(fn string) string {
	pkg := strings.TrimPrefix(fn, modulePrefix+"internal/")
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	for _, l := range layers {
		if pkg == l {
			return l
		}
	}
	return "other"
}

// allocPrefixes name the runtime's allocation and garbage-collection entry
// points, and the heap structures only they touch.
var allocPrefixes = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray",
	"runtime.makeslice", "runtime.growslice", "runtime.makemap",
	"runtime.gc", "runtime.scanobject", "runtime.scanblock",
	"runtime.scanstack", "runtime.markroot", "runtime.greyobject",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
	"runtime.wbBuf", "runtime.bulkBarrier",
	"runtime.(*mspan).", "runtime.(*mheap).", "runtime.(*mcache).",
	"runtime.(*mcentral).", "runtime.(*gcWork).", "runtime.(*sweepLocked).",
}

func isAllocOrGC(fn string) bool {
	for _, p := range allocPrefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// isCoroSwitch reports frames of the coroutine switch behind iter.Pull,
// which the workload uses to hand control between simulated threads and
// the engine.
func isCoroSwitch(fn string) bool {
	return strings.HasPrefix(fn, "runtime.coro") || strings.HasPrefix(fn, "iter.Pull")
}

// layerShares is a traced run's host-time split, as shares of all samples.
type layerShares struct {
	samples      int64
	self         map[string]int64 // layer -> samples charged to it
	alloc        int64
	coro         int64
	unattributed int64
}

func newLayerShares() *layerShares {
	return &layerShares{self: map[string]int64{}}
}

func (s *layerShares) add(samples []stackSample) {
	for _, smp := range samples {
		c := attribute(smp.stack)
		s.samples += smp.count
		if c.layer == "" {
			s.unattributed += smp.count
		} else {
			s.self[c.layer] += smp.count
		}
		if c.alloc {
			s.alloc += smp.count
		}
		if c.coro {
			s.coro += smp.count
		}
	}
}

// pct returns n as a percentage of all samples.
func (s *layerShares) pct(n int64) float64 {
	if s.samples == 0 {
		return 0
	}
	return 100 * float64(n) / float64(s.samples)
}

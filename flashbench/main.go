// Command flashbench is flashsim's benchmark. Each process runs one
// workload — a Figure 4.1 application on the paper's 16-node FLASH machine
// — as many times as fit in --seconds, checks every simulation, and prints
// its metrics as one JSON object on the last line of standard output:
// end-to-end host costs with --trace 0, per-layer counts and host-time
// shares from a profiled run with --trace 1. README.md defines every
// metric. Build and run it from the root of a checkout with
//
//	bash flashbench/run.sh --workload mp3d --seconds 25 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"flashsim/internal/apps"
)

// minSims is the fewest timed simulations of each kind a run makes,
// however short --seconds is, so that every median has a middle. minSetups
// is the fewest set-up times behind setup_s: runs with fewer timed
// simulations set up extra machines without running them.
const (
	minSims   = 3
	minSetups = 60
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("flashbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("workload", "", "workload to run: mp3d, lu, radix-sharded or barnes-sampled")
	seed := flags.Int64("seed", 0, "recorded with the result; the applications take no seed, so every seed runs the same input")
	seconds := flags.Float64("seconds", 10, "how long the timed simulations run")
	trace := flags.Int("trace", 0, "0: end-to-end metrics from untraced simulations; 1: per-layer metrics from a profiled run")
	scale := flags.Int("scale", 4, "problem-size divisor (8 is the held-out input)")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "flashbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 || *scale <= 0 {
		fmt.Fprintln(stderr, "flashbench: --trace must be 0 or 1, --seconds and --scale positive")
		return 2
	}

	fmt.Fprintf(stdout, "# workload=%s seed=%d scale=%d seconds=%g trace=%d\n", w.name, *seed, *scale, *seconds, *trace)
	fmt.Fprintf(stdout, "# go=%s nproc=%d gomaxprocs=%d commit=%s\n", runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), commit())

	cal, err := newCalibrator()
	if err != nil {
		fmt.Fprintln(stderr, "flashbench:", err)
		return 1
	}
	b := &bench{w: w, p: apps.Params{Procs: 16, Scale: *scale}, log: stdout, cal: cal}
	b.reference(*trace == 1)
	budget := time.Duration(*seconds * float64(time.Second))
	var metrics map[string]metric
	untraced, traced, setups := b.timed(budget, *trace == 1)
	if *trace == 0 {
		metrics = b.endToEnd(untraced, setups)
	} else {
		metrics = b.perLayer(untraced, traced)
	}

	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	fmt.Fprintf(stdout, "# %d of %d simulations failed\n", b.failed, b.attempted)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, "flashbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench runs one workload's simulations and counts their failures.
type bench struct {
	w   workload
	p   apps.Params
	log io.Writer
	cal *calibrator
	// calibs are the calibration kernel's times over the timed part of
	// the run, in seconds.
	calibs []float64

	attempted, failed int
	// first is the run's first simulation: every later one must reproduce
	// its simulated counts.
	first result
	// seqCycles is the sequential engine's cycle count for a sharded
	// workload, which every sharded simulation must reproduce (0 otherwise).
	seqCycles uint64
	// full is the full-detail reference of a sampled workload.
	full result
}

// check counts r as attempted and, if it failed, as failed. A simulation
// fails if it returned an error, its cycle count differs from a non-zero
// cycles, or (when same is non-nil) any of its deterministic counts
// differs from same's.
func (b *bench) check(what string, r result, same *result, cycles uint64) bool {
	b.attempted++
	err := r.err
	if err == nil && cycles != 0 && uint64(r.rep.Elapsed) != cycles {
		err = fmt.Errorf("flash cycles %d, want %d", r.rep.Elapsed, cycles)
	}
	if err == nil && same != nil && counts(r) != counts(*same) {
		err = fmt.Errorf("counts %+v, want %+v", counts(r), counts(*same))
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(b.log, "# FAIL %s %s: %v\n", b.w.name, what, err)
		return false
	}
	return true
}

// simCounts are the simulated counts a host-only change must leave
// identical from one simulation of an input to the next.
type simCounts struct {
	cycles, events, refs, handlers, msgs uint64
}

func counts(r result) simCounts {
	return simCounts{uint64(r.rep.Elapsed), r.events, r.rep.Refs, r.rep.HandlerInvocations, r.rep.NetMsgs}
}

// reference runs the untimed simulations the timed ones are checked
// against: on the sharded engine, the same input on the sequential engine,
// whose cycle count the sharded engine must reproduce exactly; the run's
// first simulation, which also warms the process up; and, for a traced run
// of a sampled workload, the full-detail simulation its estimate is judged
// against.
func (b *bench) reference(traced bool) {
	if b.w.workers > 0 {
		seq := simulate(b.w.sequential(), b.p, false)
		if b.check("sequential reference", seq, nil, 0) {
			b.seqCycles = uint64(seq.rep.Elapsed)
		}
	}
	b.first = simulate(b.w, b.p, false)
	b.check("first simulation", b.first, nil, b.seqCycles)
	if traced && b.w.sample.Enabled() {
		b.full = simulate(b.w.fullDetailed(), b.p, false)
		b.check("full-detail reference", b.full, nil, 0)
	}
}

// timed runs simulations for at least budget (and at least minSims of
// each kind), forcing a collection before each so every simulation starts
// from the same heap, and returns those that passed their checks. With
// trace, every other simulation is traced, so that the host's drift moves
// the traced and the untraced medians alike. Without it, every simulation
// is followed by extraSetups machines that are set up but not run, and
// setups holds the set-up times of both, topped up to minSetups. The
// calibration kernel runs before every simulation and every set-up.
func (b *bench) timed(budget time.Duration, trace bool) (untraced, traced []result, setups []float64) {
	kinds, extra := 1, b.extraSetups(budget)
	if trace {
		kinds, extra = 2, 0
	}
	deadline := time.Now().Add(budget)
	for n := 0; n < kinds*minSims || time.Now().Before(deadline); n++ {
		tr := trace && n%2 == 1
		b.calibrate()
		r := simulate(b.w, b.p, tr)
		if b.check("simulation", r, &b.first, b.seqCycles) {
			if tr {
				traced = append(traced, r)
			} else {
				untraced = append(untraced, r)
				setups = append(setups, r.setup.Seconds())
			}
		}
		for i := 0; i < extra; i++ {
			if s, err := b.setupOnly(); err == nil {
				setups = append(setups, s)
			}
		}
	}
	for !trace && len(setups) < minSetups {
		s, err := b.setupOnly()
		if err != nil {
			break // the timed simulations' own set-ups have failed too
		}
		setups = append(setups, s)
	}
	return untraced, traced, setups
}

// calibrate forces a collection and times the calibration kernel.
func (b *bench) calibrate() {
	runtime.GC()
	b.calibs = append(b.calibs, b.cal.run().Seconds())
}

// calib is the calibration kernel's median time over the run, in seconds.
func (b *bench) calib() float64 {
	return median(append([]float64(nil), b.calibs...))
}

// extraSetups is how many machines to set up, but not run, after each timed
// simulation, so that a run of budget takes at least minSetups set-up times
// spread over its whole length. It is estimated from the first simulation.
func (b *bench) extraSetups(budget time.Duration) int {
	per := b.first.setup + b.first.wall
	if per <= 0 {
		return 0
	}
	sims := max(1, int(budget/per))
	return max(0, (minSetups+sims-1)/sims-1)
}

// setupOnly sets up a machine after a collection and a calibration, like
// every timed simulation, but does not run it, and returns the set-up time.
func (b *bench) setupOnly() (float64, error) {
	b.calibrate()
	mc, err := setup(b.w, b.p)
	return (mc.newMachine + mc.build).Seconds(), err
}

// endToEnd reduces the untraced simulations to the end-to-end metrics: the
// medians of set-up time, wall time and simulated throughput, scaled to
// the reference host (see calibRef), and of allocation per simulation, and
// the process's peak resident memory. It logs the unscaled medians.
func (b *bench) endToEnd(rs []result, setups []float64) map[string]metric {
	// A host that runs the calibration kernel slower than calibRef, in the
	// median over the run, runs the simulator slower by the same factor.
	scale := calibRef.Seconds() / b.calib()
	wall := medianOf(rs, func(r result) float64 { return r.wall.Seconds() })
	setup := median(setups)
	fmt.Fprintf(b.log, "# unscaled: wall_s %.6g setup_s %.6g; calibration kernel %.6g ms (median of %d), reference %g ms\n",
		wall, setup, 1e3*b.calib(), len(b.calibs), 1e3*calibRef.Seconds())
	return map[string]metric{
		"setup_s":         {setup * scale, "s"},
		"wall_s":          {wall * scale, "s"},
		"sim_mrefs_per_s": {medianOf(rs, func(r result) float64 { return float64(r.rep.Refs) / r.wall.Seconds() / 1e6 }) / scale, "Mref/s"},
		"allocs_k":        {medianOf(rs, func(r result) float64 { return float64(r.host.AllocObjects) / 1e3 }), "k"},
		"alloc_mb":        {medianOf(rs, func(r result) float64 { return float64(r.host.AllocBytes) / 1e6 }), "MB"},
		"max_rss_mb":      {float64(maxRSSBytes()) / 1e6, "MB"},
	}
}

// perLayer reduces a traced run to the per-layer metrics. Work counts come
// from the first simulation's report (they are deterministic); runtime
// costs from the untraced simulations; host-time shares from the traced
// simulations' CPU profiles of World.Run, converted to milliseconds with
// the median span of World.Run.
func (b *bench) perLayer(untraced, traced []result) map[string]metric {
	out := map[string]metric{}
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	pct := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return 100 * num / den
	}

	rep := b.first.rep
	set("workload.refs", float64(rep.Refs), "count")
	set("cpu.misses", float64(rep.Misses), "count")
	set("cpu.miss_rate_pct", 100*rep.MissRate, "%")
	set("cpu.read_stall_pct", 100*rep.Breakdown.Read, "%")
	set("cpu.sync_stall_pct", 100*rep.Breakdown.Sync, "%")
	set("magic.handlers", float64(rep.HandlerInvocations), "count")
	set("magic.handlers_per_miss", rep.HandlersPerMiss, "ratio")
	set("magic.pp_occ_pct", 100*rep.AvgPPOcc, "%")
	set("ppsim.dual_issue_eff", rep.DualIssueEff, "ratio")
	set("ppsim.pairs_per_handler", rep.PairsPerHandler, "ratio")
	set("ppsim.mdc_miss_pct", 100*rep.MDCMissRate, "%")
	set("network.msgs", float64(rep.NetMsgs), "count")
	set("network.naks", float64(rep.Naks), "count")
	set("memsys.accesses", float64(rep.MemAccesses), "count")
	set("memsys.occ_pct", 100*rep.AvgMemOcc, "%")
	set("memsys.spec_useless_pct", 100*rep.SpecUseless, "%")
	set("sim.events", float64(b.first.events), "count")
	set("sim.flash_cycles", float64(rep.Elapsed), "cycles")

	var syncOps, windows, empty, shardWindows uint64
	if len(traced) > 0 {
		if p := traced[0].engine; p != nil && p.Engine == "sharded" {
			syncOps, windows = p.SyncOps(), p.CoordWindows
			for _, s := range p.Shards {
				empty += s.EmptyWindows
				shardWindows += s.Windows
			}
		}
	}
	set("sim.sync_ops", float64(syncOps), "count")
	set("sim.windows", float64(windows), "count")
	set("sim.empty_window_pct", pct(float64(empty), float64(shardWindows)), "%")

	var sw, ffd, det, ci, serr float64
	if s := rep.Sampled; s != nil {
		sw, ffd = float64(s.Windows), float64(s.FFDispatches)
		det = pct(float64(s.DetailedCycles), float64(s.DetailedCycles+s.FFCycles))
		ci = pct(float64(s.ElapsedCI), float64(s.ElapsedEst))
		if full := float64(b.full.rep.Elapsed); full > 0 {
			serr = pct(math.Abs(float64(s.ElapsedEst)-full), full)
		}
	}
	set("sampled.windows", sw, "count")
	set("sampled.ff_dispatches", ffd, "count")
	set("sampled.detailed_pct", det, "%")
	set("sampled.ci95_pct", ci, "%")
	set("sampled.err_pct", serr, "%")

	set("runtime.allocs_per_event", medianOf(untraced, func(r result) float64 {
		return float64(r.host.AllocObjects) / float64(r.events)
	}), "ratio")
	set("runtime.gc_cycles", medianOf(untraced, func(r result) float64 { return float64(r.host.GCCycles) }), "count")
	set("runtime.gc_cpu_pct", medianOf(untraced, func(r result) float64 {
		return pct(float64(r.host.GCCPUNS), float64(r.cpu.Nanoseconds()))
	}), "%")

	shares := newLayerShares()
	for _, r := range traced {
		shares.add(r.profile)
	}
	runMS := medianOf(traced, func(r result) float64 { return 1e3 * r.run.Seconds() })
	selfMS := func(layers ...string) float64 {
		var n int64
		for _, l := range layers {
			n += shares.self[l]
		}
		return shares.pct(n) / 100 * runMS
	}
	for _, l := range layers {
		set(l+".self_pct", shares.pct(shares.self[l]), "%")
		set(l+".self_ms", selfMS(l), "ms")
	}
	set("runtime.alloc_pct", shares.pct(shares.alloc), "%")
	set("runtime.coro_pct", shares.pct(shares.coro), "%")
	set("runtime.unattributed_pct", shares.pct(shares.unattributed), "%")
	perUnit := func(ms float64, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return ms * 1e6 / float64(n)
	}
	set("sim.ns_per_event", perUnit(selfMS("sim"), b.first.events), "ns")
	set("magic.ns_per_handler", perUnit(selfMS("magic", "ppsim", "protocol"), rep.HandlerInvocations), "ns")
	set("cpu.ns_per_ref", perUnit(selfMS("cpu"), rep.Refs), "ns")
	set("workload.ns_per_ref", perUnit(selfMS("workload", "apps"), rep.Refs), "ns")

	spanMS := func(d func(r result) time.Duration) float64 {
		return medianOf(traced, func(r result) float64 { return 1e3 * d(r).Seconds() })
	}
	set("core.new_ms", spanMS(func(r result) time.Duration { return r.newMachine }), "ms")
	set("apps.build_ms", spanMS(func(r result) time.Duration { return r.build }), "ms")
	set("check.verify_ms", spanMS(func(r result) time.Duration { return r.verify }), "ms")
	set("check.coherence_ms", spanMS(func(r result) time.Duration { return r.coherence }), "ms")
	set("stats.collect_ms", spanMS(func(r result) time.Duration { return r.collect }), "ms")

	set("host.calib_ms", 1e3*b.calib(), "ms")
	set("host.unscaled_wall_s", medianOf(untraced, func(r result) float64 { return r.wall.Seconds() }), "s")
	set("trace.samples", float64(shares.samples), "count")
	tracedMS := medianOf(traced, func(r result) float64 { return 1e3 * r.wall.Seconds() })
	untracedMS := medianOf(untraced, func(r result) float64 { return 1e3 * r.wall.Seconds() })
	set("trace.overhead_pct", pct(tracedMS-untracedMS, untracedMS), "%")
	return out
}

// medianOf is the median of f over rs (0 when rs is empty, as when every
// simulation failed, so that every metric is still reported).
func medianOf(rs []result, f func(result) float64) float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r)
	}
	return median(v)
}

// median is the median of v (0 when v is empty); it sorts v.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// commit identifies the simulator source: the VCS revision stamped into
// the build when there is one, else a digest of go.mod and internal/ under
// the working directory.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	h := sha256.New()
	files := []string{"go.mod"}
	_ = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, path)
		}
		return nil
	})
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

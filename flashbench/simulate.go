package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"syscall"
	"time"

	"flashsim/internal/apps"
	"flashsim/internal/core"
	"flashsim/internal/metrics"
	"flashsim/internal/sim"
	"flashsim/internal/stats"
	simworkload "flashsim/internal/workload"
)

// result is one simulation, timed from outside through the public API.
type result struct {
	// Spans around the benchmark's calls. setup = newMachine + build; run
	// spans World.Run alone (a traced simulation's CPU profile covers just
	// it); wall runs from World.Run entry to the return of stats.Collect,
	// less the time a traced simulation takes to stop its profile.
	newMachine, build, setup time.Duration
	run, verify, coherence   time.Duration
	collect, wall            time.Duration
	host                     metrics.HostDelta // runtime counters over wall
	cpu                      time.Duration     // process CPU time over wall
	rep                      stats.Report
	events                   uint64
	engine                   *sim.EngineProfile // traced simulations only
	profile                  []stackSample      // traced simulations only
	err                      error              // run, verify or coherence failure
}

// machine is a freshly built machine with an application on it.
type machine struct {
	m     *core.Machine
	world *simworkload.World
	app   *apps.App
	// newMachine spans core.New, build spans workload.NewWorld and
	// apps.Build.
	newMachine, build time.Duration
}

// setup builds a fresh machine for w and the application on it.
func setup(w workload, p apps.Params) (machine, error) {
	t0 := time.Now()
	m, err := core.New(w.config())
	if err != nil {
		return machine{}, fmt.Errorf("core.New: %w", err)
	}
	if se, ok := m.Eng.(*sim.ShardedEngine); ok {
		se.Workers = w.workers
	}
	t1 := time.Now()
	world := simworkload.NewWorld(m)
	app, err := apps.Build(w.app, world, p)
	if err != nil {
		return machine{}, fmt.Errorf("apps.Build: %w", err)
	}
	return machine{m, world, app, t1.Sub(t0), time.Since(t1)}, nil
}

// simulate sets up a fresh machine for w, runs the application to
// completion, verifies its result and the machine's coherence, and
// collects the report. A traced simulation also turns on the engine's
// self-profiling and takes a CPU profile of World.Run. A panic on the
// calling goroutine is reported as the simulation's error.
func simulate(w workload, p apps.Params, traced bool) (r result) {
	defer func() {
		if v := recover(); v != nil {
			if traced {
				pprof.StopCPUProfile()
			}
			r.err = fmt.Errorf("panic: %v", v)
		}
	}()
	mc, err := setup(w, p)
	if err != nil {
		r.err = err
		return r
	}
	m, world, app := mc.m, mc.world, mc.app
	r.newMachine, r.build, r.setup = mc.newMachine, mc.build, mc.newMachine+mc.build

	var prof bytes.Buffer
	if traced {
		m.Eng.EnableProfiling()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			r.err = fmt.Errorf("pprof: %w", err)
			return r
		}
	}
	cpu0 := cpuTime()
	before := metrics.ReadHost()
	start := time.Now()
	if err := world.Run(app.Run, 0); err != nil {
		r.err = fmt.Errorf("run: %w", err)
	}
	ran := time.Now()
	if traced {
		pprof.StopCPUProfile() // writes out the profile: not timed
	}
	stopped := time.Now()
	if r.err == nil {
		if err := app.Verify(); err != nil {
			r.err = fmt.Errorf("verify: %w", err)
		}
	}
	verified := time.Now()
	if r.err == nil {
		if err := m.CheckCoherence(); err != nil {
			r.err = fmt.Errorf("coherence: %w", err)
		}
	}
	checked := time.Now()
	r.rep = stats.Collect(m)
	collected := time.Now()
	r.host = metrics.ReadHost().Sub(before)
	r.cpu = cpuTime() - cpu0
	if traced {
		samples, err := parseProfile(prof.Bytes())
		if err != nil && r.err == nil {
			r.err = err
		}
		r.profile = samples
		r.engine = m.Eng.Profile()
	}
	r.run, r.verify, r.coherence, r.collect = ran.Sub(start), verified.Sub(stopped), checked.Sub(verified), collected.Sub(checked)
	r.wall = r.run + collected.Sub(stopped)
	r.events = m.Eng.ExecutedEvents()
	return r
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSBytes is the process's peak resident set size.
func maxRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss << 10 // Linux reports kilobytes
}

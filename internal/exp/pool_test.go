package exp

import (
	"sync"
	"testing"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/workload"
)

// TestMachineResetDeterminism recycles one machine through Reset and
// requires the second run to be bit-identical to a fresh machine's run —
// the property the machine pool depends on.
func TestMachineResetDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := goldenConfig()
	run := func(m *core.Machine) goldenDigest {
		t.Helper()
		w := workload.NewWorld(m)
		app, err := apps.Build("fft", w, apps.Params{Scale: goldenScales["fft"]})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(app.Run, 0); err != nil {
			t.Fatal(err)
		}
		if err := app.Verify(); err != nil {
			t.Fatal(err)
		}
		return goldenDigest{Elapsed: uint64(m.Elapsed), Executed: m.Eng.ExecutedEvents()}
	}
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh := run(m)
	m.Reset()
	if recycled := run(m); recycled != fresh {
		t.Errorf("recycled digest %+v != fresh digest %+v", recycled, fresh)
	}
	if key := m.PoolKey(); key != core.PoolKeyFor(cfg) {
		t.Errorf("pool key mismatch: machine %q, config %q", key, core.PoolKeyFor(cfg))
	}

	// The ideal machine recycles too (Pair releases its ideal leg to the
	// experiment pool), so its Reset must be just as deterministic.
	icfg := cfg
	icfg.Kind = arch.KindIdeal
	im, err := core.New(icfg)
	if err != nil {
		t.Fatal(err)
	}
	ifresh := run(im)
	im.Reset()
	if recycled := run(im); recycled != ifresh {
		t.Errorf("recycled ideal digest %+v != fresh ideal digest %+v", recycled, ifresh)
	}
}

// TestMachinePoolConcurrent exercises the pool from parallel goroutines
// running real simulations (the -race target in make verify).
func TestMachinePoolConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	pool := NewMachinePool()
	cfg := goldenConfig()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 2; k++ {
				m, err := pool.Get(cfg)
				if err != nil {
					errs <- err
					return
				}
				w := workload.NewWorld(m)
				app, err := apps.Build("fft", w, apps.Params{Scale: 256})
				if err != nil {
					errs <- err
					return
				}
				if err := w.Run(app.Run, 0); err != nil {
					errs <- err
					return
				}
				if err := app.Verify(); err != nil {
					errs <- err
					return
				}
				pool.Put(m)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if pool.Hits+pool.Misses != 8 {
		t.Errorf("pool served %d gets, want 8", pool.Hits+pool.Misses)
	}
	if pool.Misses > 4 {
		t.Errorf("pool built %d machines for 4 goroutines", pool.Misses)
	}
}

package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/stats"
	"flashsim/internal/workload"
)

// trimmedGrid shrinks the sweep axes for test speed and restores them.
func trimmedGrid(t *testing.T) {
	t.Helper()
	mdc, div, qcap, proto, transit := exploreMDC, explorePPDiv, exploreQCap, exploreProto, exploreTransit
	exploreMDC = []int{16 << 10}
	explorePPDiv = []int{1, 2}
	exploreQCap = []int{16}
	exploreProto = []arch.Protocol{arch.ProtoDynPtr}
	exploreTransit = []int{22}
	t.Cleanup(func() {
		exploreMDC, explorePPDiv, exploreQCap, exploreProto, exploreTransit = mdc, div, qcap, proto, transit
	})
}

// TestExploreCachedRerunIdentical requires a sweep served entirely from
// the result cache to emit byte-identical results to the populating sweep,
// and the populating sweep to match an uncached one.
func TestExploreCachedRerunIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	trimmedGrid(t)
	o := ExploreOptions{App: "fft", Verify: true}

	plain, err := Explore(o)
	if err != nil {
		t.Fatalf("uncached: %v", err)
	}
	o.CacheDir = t.TempDir()
	first, err := Explore(o)
	if err != nil {
		t.Fatalf("populating: %v", err)
	}
	second, err := Explore(o)
	if err != nil {
		t.Fatalf("cached rerun: %v", err)
	}

	enc := func(r *ExploreResult) string {
		buf, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(buf)
	}
	if enc(plain) != enc(first) {
		t.Errorf("cached sweep differs from uncached sweep:\nuncached: %s\ncached: %s", enc(plain), enc(first))
	}
	if enc(first) != enc(second) {
		t.Errorf("cached rerun differs from populating sweep:\nfirst: %s\nsecond: %s", enc(first), enc(second))
	}

	// 2 FLASH points + 1 ideal baseline simulate once, then never again.
	if first.CacheMisses != 3 || first.CacheHits != 0 {
		t.Errorf("populating sweep: %d hits / %d misses, want 0 / 3", first.CacheHits, first.CacheMisses)
	}
	if second.CacheMisses != 0 || second.CacheHits != 3 {
		t.Errorf("cached rerun: %d hits / %d misses, want 3 / 0", second.CacheHits, second.CacheMisses)
	}
	if len(first.Points) != 2 {
		t.Errorf("trimmed grid produced %d points, want 2", len(first.Points))
	}
	for _, p := range first.Points {
		if p.IdealElapsed == 0 || p.Elapsed == 0 {
			t.Errorf("point %+v has zero cycles", p)
		}
	}
}

// TestExplorePointMatchesPlainRun requires an explore point to report
// exactly what a fresh core.New + World.Run of the same configuration
// reports: the sweep measures real design points, not a variant execution.
func TestExplorePointMatchesPlainRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	trimmedGrid(t)
	// At these sizes a pause-and-resume run of the same configuration
	// drifts from a plain one (fft -0.24%, radix +0.31%).
	for app, scale := range map[string]int{"fft": 16, "radix": 64} {
		res, err := Explore(ExploreOptions{App: app, Scale: scale})
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		for _, pt := range res.Points {
			cfg := exploreConfig(res.Procs, exploreProto[0], pt.MDCSize, pt.PPClockDiv, pt.NetQueueCap, pt.NetTransit)
			m, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			w := workload.NewWorld(m)
			a, err := apps.Build(app, w, apps.Params{Procs: res.Procs, Scale: res.Scale})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Run(a.Run, 0); err != nil {
				t.Fatal(err)
			}
			rep := stats.Collect(m)
			if pt.Elapsed != uint64(rep.Elapsed) || pt.ReportDigest != reportDigest(rep) {
				t.Errorf("%s pp-clk 1/%d: explore point %d cycles (digest %s), plain run %d cycles (digest %s)",
					app, pt.PPClockDiv, pt.Elapsed, pt.ReportDigest, rep.Elapsed, reportDigest(rep))
			}
		}
	}
}

// TestExploreRejectsUnknownApp pins the fail-fast app validation.
func TestExploreRejectsUnknownApp(t *testing.T) {
	if _, err := Explore(ExploreOptions{App: "nosuch"}); err == nil {
		t.Fatal("unknown app accepted")
	}
	if err := apps.ValidateNames([]string{"fft", "bogus"}); err == nil {
		t.Fatal("ValidateNames accepted bogus")
	}
}

// TestResultCacheRoundTrip pins the content-addressed cache: a stored
// report comes back bit-identical, a wrong key misses, and a corrupt
// entry is treated as a miss.
func TestResultCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := NewResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldenConfig()
	key := exploreCacheKey(cfg, "fft", 256, 4)
	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache hit")
	}
	r, err := RunApp("fft", cfg, apps.Params{Scale: 256}, false)
	if err != nil {
		t.Fatal(err)
	}
	rep := r.Report
	if err := c.Put(key, rep); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("stored entry missed")
	}
	rep.Host = nil
	a, _ := json.Marshal(rep)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Errorf("cache round trip changed the report:\nput: %s\ngot: %s", a, b)
	}
	if _, ok := c.Get(key + "|other"); ok {
		t.Error("distinct key hit the same entry")
	}
	// Corrupt entries (e.g. a truncated write) must read as misses.
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files) != 1 {
		t.Fatalf("%d cache files, want 1", len(files))
	}
	if err := os.WriteFile(files[0], []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Error("corrupt entry hit")
	}
}

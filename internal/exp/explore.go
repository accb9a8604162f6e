package exp

// The explore experiment sweeps the MAGIC design space the paper holds
// fixed — protocol processor clock, MAGIC data cache size, network queue
// depth, directory protocol, fabric latency — and maps each design point's
// flexibility cost (slowdown versus the ideal hardwired machine, Figure
// 4.1's metric) against a hardware cost proxy, marking the Pareto
// frontier. Every point is a distinct simulated machine, run as a plain
// simulation (RunApp); an optional content-addressed ResultCache keyed by
// the normalized simulated-behavior digest lets a repeated sweep skip
// simulation entirely and reproduce the result file byte for byte.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/stats"
)

// ExploreOptions configures the design-space sweep.
type ExploreOptions struct {
	// App is the application swept (any Figure 4.1 name; default fft).
	App string
	// Scale is the problem-size divisor (default: the golden-digest scale
	// for the app, keeping a full sweep to seconds).
	Scale int
	// Procs is the node count (default 4).
	Procs int
	// CacheDir is the content-addressed result cache directory (empty
	// disables caching).
	CacheDir string
	// Verify re-checks application results on every simulated point.
	Verify bool
}

// ExplorePoint is one design point's outcome. All fields are deterministic
// functions of the configuration and the application, so result files
// compare byte-for-byte across cache hits and misses.
type ExplorePoint struct {
	Protocol    string `json:"protocol"`
	MDCSize     int    `json:"mdc_bytes"`
	PPClockDiv  int    `json:"pp_clock_div"`
	NetQueueCap int    `json:"net_queue_cap"`
	NetTransit  int    `json:"net_transit"`

	Elapsed      uint64  `json:"elapsed_cycles"`
	IdealElapsed uint64  `json:"ideal_cycles"`
	SlowdownPct  float64 `json:"slowdown_pct"`
	// Cost is the hardware cost proxy (see DESIGN.md §15): PP clock term
	// 2/div + MDC KiB/64 + queue cap/16 + directory term (bit-vector 1.0,
	// dynamic pointer 0.5) + fabric term 22/transit.
	Cost float64 `json:"cost"`
	// Pareto marks nondominated points: no other point has both lower-or-
	// equal slowdown and lower-or-equal cost with one strictly lower.
	Pareto bool `json:"pareto"`
	// ReportDigest fingerprints the point's full statistics report, so
	// byte-comparing result files also proves the cache returned
	// bit-identical Reports.
	ReportDigest string `json:"report_digest"`
}

// ExploreResult is the full sweep outcome. Marshaling it produces the
// deterministic result file; the summary counters live outside it.
type ExploreResult struct {
	App    string         `json:"app"`
	Scale  int            `json:"scale"`
	Procs  int            `json:"procs"`
	Points []ExplorePoint `json:"points"`

	// Summary counters, not part of the deterministic result payload.
	CacheHits   int `json:"-"`
	CacheMisses int `json:"-"`
}

// exploreAxes defines the sweep grid. The NetTransit axis doubles as the
// engine-lookahead axis: the uniform-model transit latency is the
// conservative window both engines synchronize and flush stores on, so
// sweeping it sweeps the lookahead window (DESIGN.md §8, §15).
var (
	exploreMDC     = []int{16 << 10, 64 << 10, 256 << 10}
	explorePPDiv   = []int{1, 2}
	exploreQCap    = []int{8, 16}
	exploreProto   = []arch.Protocol{arch.ProtoDynPtr, arch.ProtoBitVector}
	exploreTransit = []int{22, 14}
)

// exploreConfig builds the FLASH machine of one design point.
func exploreConfig(procs int, proto arch.Protocol, mdc, div, qcap, transit int) arch.Config {
	cfg := arch.DefaultConfig()
	cfg.Kind = arch.KindFLASH
	cfg.Nodes = procs
	cfg.MemBytesPerNode = 4 << 20
	cfg.Protocol = proto
	cfg.MDCSize = mdc
	cfg.PPClockDiv = div
	cfg.NetQueueCap = qcap
	cfg.Timing.NetTransit = uint32(transit)
	return cfg
}

func exploreCost(p ExplorePoint) float64 {
	dir := 0.5
	if p.Protocol == arch.ProtoBitVector.String() {
		dir = 1.0
	}
	return 2.0/float64(p.PPClockDiv) +
		float64(p.MDCSize)/float64(64<<10) +
		float64(p.NetQueueCap)/16.0 +
		dir +
		22.0/float64(p.NetTransit)
}

// ResultCache is a content-addressed store of simulation reports: one JSON
// file per entry under dir, named by the SHA-256 of the normalized
// simulated-behavior key. Entries are reports with host-cost accounting
// stripped, so a hit is byte-identical to the report a fresh simulation of
// the same key produces.
type ResultCache struct{ dir string }

// NewResultCache opens (creating if needed) a cache rooted at dir; empty
// dir disables caching (every Get misses, every Put is dropped).
func NewResultCache(dir string) (*ResultCache, error) {
	if dir == "" {
		return &ResultCache{}, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &ResultCache{dir: dir}, nil
}

type cacheEntry struct {
	Key    string       `json:"key"`
	Report stats.Report `json:"report"`
}

func (c *ResultCache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:])+".json")
}

// Get returns the cached report for key, if present.
func (c *ResultCache) Get(key string) (stats.Report, bool) {
	if c == nil || c.dir == "" {
		return stats.Report{}, false
	}
	buf, err := os.ReadFile(c.path(key))
	if err != nil {
		return stats.Report{}, false
	}
	var e cacheEntry
	if err := json.Unmarshal(buf, &e); err != nil || e.Key != key {
		return stats.Report{}, false
	}
	return e.Report, true
}

// Put stores a report under key. Host accounting is stripped first: the
// cache holds simulated results only, which are machine- and
// run-independent.
func (c *ResultCache) Put(key string, rep stats.Report) error {
	if c == nil || c.dir == "" {
		return nil
	}
	rep.Host = nil
	buf, err := json.MarshalIndent(cacheEntry{Key: key, Report: rep}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(c.path(key), append(buf, '\n'), 0o644)
}

// exploreCacheKey is the content address of one simulated point: the
// normalized simulated-behavior key (engine/dispatch excluded — they cannot
// change the result) plus the workload identity.
func exploreCacheKey(cfg arch.Config, app string, scale, procs int) string {
	return fmt.Sprintf("explore-v2|%s|app=%s|scale=%d|procs=%d",
		core.SimKeyFor(cfg), app, scale, procs)
}

func reportDigest(rep stats.Report) string {
	rep.Host = nil
	buf, err := json.Marshal(rep)
	if err != nil {
		return "unmarshalable"
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// Explore runs the design-space sweep and returns Pareto-annotated points
// in deterministic grid order.
func Explore(o ExploreOptions) (*ExploreResult, error) {
	if o.App == "" {
		o.App = "fft"
	}
	if _, ok := apps.Builders[o.App]; !ok {
		return nil, fmt.Errorf("explore: unknown application %q (valid: %s)", o.App, apps.ValidNames())
	}
	if o.Procs <= 0 {
		o.Procs = 4
	}
	if o.Scale <= 0 {
		o.Scale = goldenScaleFor(o.App)
	}
	p := apps.Params{Procs: o.Procs, Scale: o.Scale}
	cache, err := NewResultCache(o.CacheDir)
	if err != nil {
		return nil, err
	}
	res := &ExploreResult{App: o.App, Scale: o.Scale, Procs: o.Procs}

	// simulate returns cfg's report from the cache, or runs it plainly and
	// caches the result.
	simulate := func(cfg arch.Config) (stats.Report, error) {
		key := exploreCacheKey(cfg, o.App, o.Scale, o.Procs)
		if rep, ok := cache.Get(key); ok {
			res.CacheHits++
			return rep, nil
		}
		r, err := RunApp(o.App, cfg, p, o.Verify)
		if err != nil {
			return stats.Report{}, err
		}
		rep := r.Report
		rep.Host = nil
		res.CacheMisses++
		return rep, cache.Put(key, rep)
	}

	// The ideal baseline: the hardwired machine's timing ignores every
	// swept MAGIC knob, so one run serves the whole sweep.
	idealCfg := arch.DefaultConfig()
	idealCfg.Kind = arch.KindIdeal
	idealCfg.Nodes = o.Procs
	idealCfg.MemBytesPerNode = 4 << 20
	idealRep, err := simulate(idealCfg)
	if err != nil {
		return nil, err
	}

	for _, proto := range exploreProto {
		for _, mdc := range exploreMDC {
			for _, div := range explorePPDiv {
				for _, qcap := range exploreQCap {
					for _, transit := range exploreTransit {
						rep, err := simulate(exploreConfig(o.Procs, proto, mdc, div, qcap, transit))
						if err != nil {
							return nil, fmt.Errorf("point proto=%s mdc=%d div=%d qcap=%d net=%d: %w",
								proto, mdc, div, qcap, transit, err)
						}
						pt := ExplorePoint{
							Protocol:     proto.String(),
							MDCSize:      mdc,
							PPClockDiv:   div,
							NetQueueCap:  qcap,
							NetTransit:   transit,
							Elapsed:      uint64(rep.Elapsed),
							IdealElapsed: uint64(idealRep.Elapsed),
							ReportDigest: reportDigest(rep),
						}
						pt.SlowdownPct = 100 * (float64(pt.Elapsed)/float64(pt.IdealElapsed) - 1)
						pt.Cost = exploreCost(pt)
						res.Points = append(res.Points, pt)
					}
				}
			}
		}
	}
	markPareto(res.Points)
	return res, nil
}

// markPareto flags the nondominated points under (SlowdownPct, Cost)
// minimization. Points with identical coordinates do not dominate each
// other, so ties on the frontier all carry the flag.
func markPareto(pts []ExplorePoint) {
	for i := range pts {
		dominated := false
		for j := range pts {
			if i == j {
				continue
			}
			if pts[j].SlowdownPct <= pts[i].SlowdownPct && pts[j].Cost <= pts[i].Cost &&
				(pts[j].SlowdownPct < pts[i].SlowdownPct || pts[j].Cost < pts[i].Cost) {
				dominated = true
				break
			}
		}
		pts[i].Pareto = !dominated
	}
}

// goldenScaleFor returns the per-app default problem divisor (the golden
// suite's scales — small enough for second-scale sweeps).
func goldenScaleFor(app string) int {
	scales := map[string]int{
		"fft": 256, "lu": 8, "radix": 64, "ocean": 8,
		"barnes": 32, "mp3d": 50, "os": 16,
	}
	if s, ok := scales[app]; ok {
		return s
	}
	return 256
}

// Table renders the sweep as the paper-style aligned table: frontier
// points first (marked *), then the rest, both in increasing cost order.
func (r *ExploreResult) Table() string {
	idx := make([]int, len(r.Points))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		pa, pb := r.Points[idx[a]], r.Points[idx[b]]
		if pa.Pareto != pb.Pareto {
			return pa.Pareto
		}
		if pa.Cost != pb.Cost {
			return pa.Cost < pb.Cost
		}
		return pa.SlowdownPct < pb.SlowdownPct
	})
	rows := make([][]string, 0, len(idx))
	for _, i := range idx {
		p := r.Points[i]
		mark := ""
		if p.Pareto {
			mark = "*"
		}
		rows = append(rows, []string{
			mark, p.Protocol,
			fmt.Sprintf("%dK", p.MDCSize>>10),
			fmt.Sprintf("1/%d", p.PPClockDiv),
			fmt.Sprintf("%d", p.NetQueueCap),
			fmt.Sprintf("%d", p.NetTransit),
			fmt.Sprintf("%.2f", p.Cost),
			fmt.Sprintf("%.1f%%", p.SlowdownPct),
		})
	}
	return table([]string{"", "proto", "mdc", "pp-clk", "qcap", "net", "cost", "slowdown"}, rows)
}

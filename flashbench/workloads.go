package main

import (
	"fmt"

	"flashsim/internal/arch"
)

// workload is one benchmark input: a Figure 4.1 application on one engine
// backend. README.md records why each was chosen.
type workload struct {
	name string
	app  string
	// engine, workers and sample are the backend choices. Every one is set
	// explicitly so that the FLASHSIM_* environment defaults cannot change
	// what a workload measures.
	engine  arch.EngineKind
	workers int // sharded engine worker pool; 0 on the sequential engine
	sample  arch.SampleSpec
}

// fullDetail is the explicit "sampling off" spec: a non-zero spec with
// Stride 0 overrides FLASHSIM_SAMPLE and keeps every cycle detailed.
var fullDetail = arch.SampleSpec{Detail: 1}

var workloads = []workload{
	// Protocol-bound: engine, network, MAGIC, PP emulator and allocation.
	{name: "mp3d", app: "mp3d", engine: arch.EngineSeq, sample: fullDetail},
	// Reference-bound: cache model and workload coroutines.
	{name: "lu", app: "lu", engine: arch.EngineSeq, sample: fullDetail},
	// The sharded engine's window sync and cross-shard outboxes.
	{name: "radix-sharded", app: "radix", engine: arch.EngineSharded, workers: 2, sample: fullDetail},
	// The fast-forward paths of sampled execution.
	{name: "barnes-sampled", app: "barnes", engine: arch.EngineSeq, sample: arch.DefaultSampleSpec()},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// config is the Figure 4.1 FLASH machine: 16 nodes, 1 MB two-way caches,
// 8 MB per node, first-touch placement, uniform network, the dynamic
// pointer allocation protocol, and the dual-issue PP under compiled
// dispatch, with the workload's backend choices.
func (w workload) config() arch.Config {
	cfg := arch.DefaultConfig()
	cfg.Kind = arch.KindFLASH
	cfg.Nodes = 16
	cfg.CacheSize = 1 << 20
	cfg.MemBytesPerNode = 8 << 20
	cfg.Placement = arch.PlaceFirstTouch
	cfg.NetModel = arch.NetUniform
	cfg.Protocol = arch.ProtoDynPtr
	cfg.PPMode = arch.PPDualIssue
	cfg.PPDispatch = arch.PPDispatchCompiled
	cfg.Engine = w.engine
	cfg.EngineSync = arch.EngineSyncBarrier
	cfg.Sample = w.sample
	return cfg
}

// sequential is the same input on the sequential engine, the reference the
// sharded workload's cycle count must match.
func (w workload) sequential() workload {
	w.engine, w.workers = arch.EngineSeq, 0
	return w
}

// fullDetailed is the same input with sampling off, the reference a
// sampled estimate is judged against.
func (w workload) fullDetailed() workload {
	w.sample = fullDetail
	return w
}

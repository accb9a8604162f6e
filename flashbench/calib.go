package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// calibRef is the calibration kernel's time on a typical run of the host
// the baseline was measured on (2 CPUs, Go 1.24.0). Host seconds scaled by
// calibRef over the kernel's median time in the same run read as seconds
// on that host, however busy the machine running the benchmark is.
const calibRef = 25 * time.Millisecond

// calibrator is a fixed host workload, independent of the simulator, timed
// between the simulations of a run so that the run's host times can be
// scaled to a reference host speed. A shared host slows down for minutes
// at a time, by up to half, as other tenants load its caches and memory;
// the simulator's time then tracks this kernel's far more closely than a
// cache-resident kernel's. The kernel makes random read-modify-writes over a
// table larger than the host's L2 cache, spread over enough pages that
// where they land in memory averages out. The table is mapped outside the
// Go heap, so that it moves neither the collector's heap goal nor, beyond
// its own 16 MB, the run's peak resident memory; and the kernel allocates
// nothing, so it neither triggers nor waits for a collection.
type calibrator struct {
	table []uint64
	h     uint64
}

const (
	calibTable = 1 << 21 // 16 MB of uint64
	calibSteps = 1 << 17
)

func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, calibTable*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration table: %w", err)
	}
	c := &calibrator{table: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), calibTable), h: 1}
	c.run() // faults the table in
	return c, nil
}

// run times one pass of the kernel.
func (c *calibrator) run() time.Duration {
	start := time.Now()
	h := c.h
	for i := 0; i < calibSteps; i++ {
		h = (h ^ uint64(i)) * 0x9e3779b97f4a7c15
		slot := &c.table[h>>43&(calibTable-1)]
		*slot += h
		h ^= *slot >> 3
	}
	c.h = h
	return time.Since(start)
}

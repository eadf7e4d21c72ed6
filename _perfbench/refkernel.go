package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// refKernel is a fixed memory-bound reference: independent random
// reads over a 16 MiB table, so many misses are in flight at once, as
// in the simulator's hash-table probes. Its time moves only with the
// host (cache and memory-bandwidth contention from neighbours), so a
// spread in the program's metrics that it shares is host drift. A
// dependent pointer chase tracked the program's slow and fast host
// phases less well. The table lives outside the Go heap so it does not
// inflate the heap metrics.
type refKernel struct {
	mem   []byte
	table []uint32
}

const (
	refBits    = 22
	refEntries = 1 << refBits
	refReads   = 1 << 20
)

func newRefKernel() (*refKernel, error) {
	mem, err := syscall.Mmap(-1, 0, refEntries*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reference kernel: %w", err)
	}
	table := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), refEntries)
	for i := range table {
		table[i] = uint32(i)
	}
	return &refKernel{mem: mem, table: table}, nil
}

var refSink uint32

// sampleUS times one fixed pass of refReads reads, in µs. The read
// positions come from a 64-bit LCG, not from the table, so the reads
// are independent.
func (k *refKernel) sampleUS() float64 {
	t0 := time.Now()
	x, s := uint64(1), uint32(0)
	for i := 0; i < refReads; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		s += k.table[x>>(64-refBits)]
	}
	d := time.Since(t0)
	refSink += s
	return float64(d.Nanoseconds()) / 1e3
}

func (k *refKernel) close() { _ = syscall.Munmap(k.mem) }

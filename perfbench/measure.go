package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler polls the live heap (as of the latest GC) on its own
// goroutine and keeps the highest value seen until finish.
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func sampleHeap(every time.Duration) *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		sample := []metrics.Sample{{Name: liveHeapMetric}}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > s.peak {
				s.peak = v
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it, and returns the peak in MiB.
func (s *heapSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return float64(s.peak) / (1 << 20)
}

// runtimeCounters are the runtime/metrics counters the traced run
// reports per activity.
type runtimeCounters struct {
	gcCPU        float64 // seconds, the runtime's estimate
	gcCycles     uint64
	allocBytes   uint64
	allocObjects uint64
}

var counterNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readCounters() runtimeCounters {
	s := make([]metrics.Sample, len(counterNames))
	for i, n := range counterNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeCounters{
		gcCPU:        s[0].Value.Float64(),
		gcCycles:     s[1].Value.Uint64(),
		allocBytes:   s[2].Value.Uint64(),
		allocObjects: s[3].Value.Uint64(),
	}
}

// plusSince adds the counters' growth from before to now onto c.
func (c runtimeCounters) plusSince(before, now runtimeCounters) runtimeCounters {
	return runtimeCounters{
		gcCPU:        c.gcCPU + now.gcCPU - before.gcCPU,
		gcCycles:     c.gcCycles + now.gcCycles - before.gcCycles,
		allocBytes:   c.allocBytes + now.allocBytes - before.allocBytes,
		allocObjects: c.allocObjects + now.allocObjects - before.allocObjects,
	}
}

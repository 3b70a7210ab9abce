package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// Process-level measurements: the same code runs in the system under test
// and in the load generator, so each reports its own CPU time and Go
// runtime health over the timed phase.

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/sched/latencies:seconds",
}

// procSnap is a point-in-time reading of the process counters.
type procSnap struct {
	cpu   float64 // user+system seconds (getrusage)
	gcCPU float64
	gcs   uint64
	alloc uint64
	sched *metrics.Float64Histogram
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func takeSnap() procSnap {
	s := readRuntime()
	p := procSnap{cpu: cpuSeconds()}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		p.gcs = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		p.alloc = s[2].Value.Uint64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		p.sched = s[3].Value.Float64Histogram()
	}
	return p
}

// ProcStats is one process's share of a timed phase.
type ProcStats struct {
	GOMAXPROCS   int     `json:"gomaxprocs"`
	CPUSeconds   float64 `json:"cpu_s"`
	GCCPUSeconds float64 `json:"gc_cpu_s"`
	GCCycles     uint64  `json:"gc_cycles"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	SchedP99Ms   float64 `json:"sched_latency_p99_ms"`
	PeakHeapMB   float64 `json:"peak_heap_mb"`
	HeapMB       float64 `json:"heap_mb"` // live heap after a forced GC
}

// phase measures a process over a timed phase; a background sampler
// tracks the peak heap.
type phase struct {
	start procSnap
	stop  chan struct{}
	wg    sync.WaitGroup
	mu    sync.Mutex
	peak  uint64
}

func startPhase() *phase {
	p := &phase{start: takeSnap(), stop: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			p.mu.Lock()
			if v := s[0].Value.Uint64(); v > p.peak {
				p.peak = v
			}
			p.mu.Unlock()
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// end closes the phase: CPU and runtime deltas, then a forced GC for the
// live heap.
func (p *phase) end() ProcStats {
	close(p.stop)
	p.wg.Wait()
	e := takeSnap()
	st := ProcStats{
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPUSeconds:   e.cpu - p.start.cpu,
		GCCPUSeconds: e.gcCPU - p.start.gcCPU,
		GCCycles:     e.gcs - p.start.gcs,
		AllocBytes:   e.alloc - p.start.alloc,
		SchedP99Ms:   histP99(p.start.sched, e.sched) * 1e3,
		PeakHeapMB:   float64(p.peak) / (1 << 20),
	}
	st.HeapMB = liveHeapMB()
	return st
}

// liveHeapMB forces a GC and returns the live heap it leaves.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// histP99 is the p99 of the difference of two runtime histograms, read
// as the upper bound of the bucket holding it (runtime/metrics exposes
// scheduling latency only as buckets).
func histP99(a, b *metrics.Float64Histogram) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	d := make([]uint64, len(b.Counts))
	for i := range d {
		d[i] = b.Counts[i] - a.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(float64(total)*0.99 + 0.5)
	var cum uint64
	for i, c := range d {
		cum += c
		if cum >= want {
			hi := b.Buckets[i+1]
			if hi > 1e9 { // +Inf bucket: report its lower bound
				hi = b.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

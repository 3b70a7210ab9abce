package main

// Segment serving-path benchmarks: cold-start cost and resident heap of
// serving the lab inventory straight from its POLSEG1 segment versus
// materializing it into a heap inventory, plus the point-query cost of
// the mapped path. The cold-start pair is the paper-facing claim of the
// segment store — opening a segment reads tail+index+header only, so it
// is O(index) in the inventory size where segment.Load is O(inventory) —
// and the resident pair quantifies the RSS reduction for a read replica.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/segment"
)

// heapInuse forces a full collection and returns the live heap, so two
// calls bracketing a load measure what the loaded object keeps resident.
func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

func (l *lab) benchSegment(run func(string, int64, func(*testing.B)), report *benchReport) error {
	inv, _, err := l.ensureInv(6)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "polbench-seg-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	segPath := filepath.Join(dir, "fleet.polseg")
	if err := segment.WriteFile(inv, segPath); err != nil {
		return err
	}

	// Cold start: everything a fresh serving process does before it can
	// answer its first query.
	run("coldstart-heap-load", 0, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v, err := segment.Load(segPath)
			if err != nil {
				b.Fatal(err)
			}
			if v.Len() != inv.Len() {
				b.Fatalf("loaded %d groups, want %d", v.Len(), inv.Len())
			}
		}
	})
	run("coldstart-segment-open", 0, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := segment.Open(segPath, segment.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if r.Len() != inv.Len() {
				b.Fatalf("segment indexes %d groups, want %d", r.Len(), inv.Len())
			}
			r.Close()
		}
	})

	// Point query through each path on a warm process. The segment side
	// pays a shard decompress on first touch and an LRU hit after.
	cells := inv.Cells(inventory.GSCell)
	target := cells[len(cells)/2]
	rd, err := segment.Open(segPath, segment.Options{})
	if err != nil {
		return err
	}
	defer rd.Close()
	run("query-cell-get-segment", 0, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := rd.Cell(target); !ok {
				b.Fatal("missing cell")
			}
		}
	})
	// Scatter across shards so the LRU actually cycles instead of
	// serving one pinned block forever.
	run("query-cell-get-segment-scatter", 0, func(b *testing.B) {
		b.ReportAllocs()
		hits := 0
		for i := 0; i < b.N; i++ {
			if _, ok := rd.Cell(cells[i%len(cells)]); ok {
				hits++
			}
		}
		if hits == 0 {
			b.Fatal("no hits")
		}
	})

	// Resident heap needed to serve each path, measured as the live-heap
	// delta across the load with everything else collected.
	resident := func(name string, load func() (close func(), groups int)) {
		before := heapInuse()
		closeFn, groups := load()
		after := heapInuse()
		delta := int64(after) - int64(before)
		if delta < 0 {
			delta = 0
		}
		if groups != inv.Len() {
			panic(fmt.Sprintf("%s served %d groups, want %d", name, groups, inv.Len()))
		}
		fmt.Printf("  %-28s %12s %12d B resident\n", name, "", delta)
		report.Results = append(report.Results, benchResult{
			Name: name, Iterations: 1, BytesPerOp: delta,
		})
		closeFn()
	}
	resident("resident-heap-inventory", func() (func(), int) {
		v, err := segment.Load(segPath)
		if err != nil {
			panic(err)
		}
		return func() { runtime.KeepAlive(v) }, v.Len()
	})
	resident("resident-segment-reader", func() (func(), int) {
		r, err := segment.Open(segPath, segment.Options{})
		if err != nil {
			panic(err)
		}
		// Touch one query so the reader is in serving state, not merely
		// opened.
		if _, ok := r.Cell(target); !ok {
			panic("missing cell")
		}
		return func() { r.Close() }, r.Len()
	})
	return nil
}

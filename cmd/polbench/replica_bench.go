package main

// Replica catch-up benchmark: how fast a fresh polserve-style read
// replica converges on a primary over the replication HTTP surface. The
// primary ingests the lab fleet with a mid-stream checkpoint, so one
// benchmark op covers both halves of the real bootstrap path — download
// and install a checkpoint generation, then tail the WAL suffix through
// the pipeline to the primary's frontier.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/patternsoflife/pol/internal/ingest"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/replica"
)

func (l *lab) benchReplicaCatchup(run func(string, int64, func(*testing.B)), records int64) error {
	// Interleave the per-vessel tracks by time, the shape a live
	// multiplexed feed delivers.
	statics := l.sim.Fleet().StaticIndex()
	var stream []model.PositionRecord
	for _, tr := range l.tracks {
		stream = append(stream, tr...)
	}
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].Time < stream[j].Time })

	dir, err := os.MkdirTemp("", "polbench-replica")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	quiet := func(string, ...any) {}
	eng, err := ingest.NewEngine(ingest.Options{
		Resolution: 6,
		// Merges happen only at the explicit Finalize barrier below, so
		// the WAL layout is deterministic for every benchmark iteration.
		MergeEvery:      time.Hour,
		JournalPath:     filepath.Join(dir, "wal"),
		CheckpointPath:  filepath.Join(dir, "live.ckpt"),
		CheckpointEvery: 1,
		WALSegmentBytes: 1 << 20,
		Logf:            quiet,
	})
	if err != nil {
		return err
	}
	defer eng.Close()
	for _, v := range statics {
		if err := eng.SubmitStatic(v, nil); err != nil {
			return err
		}
	}
	half := len(stream) / 2
	for _, r := range stream[:half] {
		if err := eng.SubmitPosition(r, nil); err != nil {
			return err
		}
	}
	// Finalize merges and checkpoints the first half: the generation a
	// replica bootstraps from.
	if err := eng.Finalize(); err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if gen, _ := eng.CheckpointStatus(); gen > 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica-catchup: primary checkpoint never landed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The second half stays WAL-only (Sync flushes without merging), so
	// catch-up tails roughly half the dataset through the pipeline.
	for _, r := range stream[half:] {
		if err := eng.SubmitPosition(r, nil); err != nil {
			return err
		}
	}
	if err := eng.Sync(); err != nil {
		return err
	}

	srv := httptest.NewServer(eng.ReplHandler())
	defer srv.Close()
	target := eng.WALSeq()

	run("replica-catchup", records, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := replica.New(replica.Options{
				Primary:    srv.URL,
				Resolution: 6,
				MergeEvery: time.Hour,
				PollWait:   100 * time.Millisecond,
				RetryBase:  10 * time.Millisecond,
				Logf:       quiet,
			})
			if err != nil {
				b.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- rep.Run(ctx) }()
			for rep.StatusSnapshot().AppliedSeq < target {
				time.Sleep(time.Millisecond)
			}
			cancel()
			<-done
			if err := rep.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	return nil
}

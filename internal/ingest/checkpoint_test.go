package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/patternsoflife/pol/internal/fault"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/segment"
	"github.com/patternsoflife/pol/internal/sim"
)

// flipByte corrupts one byte in the middle of a file.
func flipByte(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x20
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointerFallback exercises the manifest lifecycle directly:
// two generations, newest wins; a corrupted newest generation falls back
// to the previous one; with every generation corrupted Load reports "no
// usable checkpoint" so the engine recovers from the WAL alone.
func TestCheckpointerFallback(t *testing.T) {
	const res = 6
	_, _, inv1 := fleetStream(t, sim.Config{Vessels: 3, Days: 4, Seed: 5}, res)
	_, _, inv2 := fleetStream(t, sim.Config{Vessels: 5, Days: 6, Seed: 6}, res)
	st := &engineState{
		counters: stateCounters{positionsSeen: 10, accepted: 7, trips: 2},
		statics:  map[uint32]model.VesselInfo{9: {MMSI: 9, Name: "TESTER"}},
		vessels:  map[uint32]vesselPersist{},
	}
	dir := t.TempDir()
	base := filepath.Join(dir, "live.polinv")

	c := newCheckpointer(base, fault.Default(), t.Logf)
	if covered, err := c.Save(inv1, st, 100, 1, 0xabcd); err != nil || covered != 100 {
		t.Fatalf("save gen1: covered %d, err %v", covered, err)
	}
	st.counters.positionsSeen = 20
	if covered, err := c.Save(inv2, st, 200, 2, 0xabcd); err != nil || covered != 100 {
		t.Fatalf("save gen2: covered %d (want oldest retained 100), err %v", covered, err)
	}

	// The stable artifact next to the configured path is the newest
	// inventory, and no generation leaves a POLINV file behind.
	stable, err := segment.Load(base + ".seg")
	if err != nil {
		t.Fatal(err)
	}
	diffInventories(t, stable, inv2, "stable artifact")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".seg") && !strings.HasSuffix(name, ".state") && !strings.HasSuffix(name, ".manifest") {
			t.Errorf("checkpoint directory holds %s, want only segments, state files and the manifest", name)
		}
	}

	// A fresh process loads the newest generation.
	inv, got, seq, err := newCheckpointer(base, fault.Default(), t.Logf).Load(res)
	if err != nil || seq != 200 {
		t.Fatalf("load: seq %d, err %v", seq, err)
	}
	diffInventories(t, inv, inv2, "newest generation")
	if got.counters.positionsSeen != 20 || got.statics[9].Name != "TESTER" {
		t.Fatalf("state roundtrip lost data: %+v", got.counters)
	}

	// Corrupt the newest generation's segment: fall back to gen 1.
	flipByte(t, filepath.Join(dir, "live.polinv.g000002.seg"))
	inv, got, seq, err = newCheckpointer(base, fault.Default(), t.Logf).Load(res)
	if err != nil || seq != 100 {
		t.Fatalf("fallback load: seq %d, err %v", seq, err)
	}
	diffInventories(t, inv, inv1, "fallback generation")
	if got.counters.positionsSeen != 10 {
		t.Fatalf("fallback state has positionsSeen %d, want 10", got.counters.positionsSeen)
	}

	// Corrupt the older generation's state too: no usable checkpoint.
	flipByte(t, filepath.Join(dir, "live.polinv.g000001.state"))
	inv, _, seq, err = newCheckpointer(base, fault.Default(), t.Logf).Load(res)
	if err != nil || inv != nil || seq != 0 {
		t.Fatalf("all-corrupt load = (%v, seq %d, %v), want WAL-only recovery signal", inv, seq, err)
	}
}

// TestManifestVintages reads one real generation through the manifest
// line of every format vintage: the line an older release wrote (with a
// POLINV "inv" entry beside the segment) loads through its segment; a
// line from before segments existed is skipped through the fallback log;
// the current line round-trips. Written back, every line names only the
// segment and the state file.
func TestManifestVintages(t *testing.T) {
	const res = 6
	_, _, inv := fleetStream(t, sim.Config{Vessels: 3, Days: 4, Seed: 5}, res)
	st := &engineState{statics: map[uint32]model.VesselInfo{}, vessels: map[uint32]vesselPersist{}}
	base := filepath.Join(t.TempDir(), "live.polinv")
	if _, err := newCheckpointer(base, fault.Default(), t.Logf).Save(inv, st, 100, 3, 0xff); err != nil {
		t.Fatal(err)
	}
	gens, err := readManifest(base + ".manifest")
	if err != nil || len(gens) != 1 {
		t.Fatalf("readManifest: %d generations, err %v", len(gens), err)
	}
	g := gens[0]
	statePart := fmt.Sprintf("state %s crc %08x size %d", g.State, g.StateCRC, g.StateSize)
	segPart := fmt.Sprintf("seg %s crc %08x size %d", g.Seg, g.SegCRC, g.SegSize)

	for _, tc := range []struct {
		name, line string
		loads      bool
	}{
		{"older release", "gen 1 seq 100 inv live.polinv.g000001 crc 0a0b0c0d size 123 " + statePart + " " + segPart + " term 3 node 00000000000000ff", true},
		{"pre-segment", "gen 1 seq 100 inv live.polinv.g000001 crc 0a0b0c0d size 123 " + statePart, false},
		{"current", manifestLine(g), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(base+".manifest", []byte(ckptManifestMagic+"\n"+tc.line+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			var logs []string
			c := newCheckpointer(base, fault.Default(), func(format string, args ...any) {
				logs = append(logs, fmt.Sprintf(format, args...))
			})
			got, _, seq, err := c.Load(res)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.loads {
				if got != nil || !strings.Contains(strings.Join(logs, "\n"), "predates segments") {
					t.Fatalf("pre-segment generation loaded (%v) or was not logged: %q", got != nil, logs)
				}
				return
			}
			if got == nil || seq != 100 {
				t.Fatalf("no generation loaded (seq %d): %q", seq, logs)
			}
			diffInventories(t, got, inv, tc.name)

			if err := writeManifest(base+".manifest", c.generations()); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(base + ".manifest")
			if err != nil {
				t.Fatal(err)
			}
			if want := ckptManifestMagic + "\n" + manifestLine(g) + "\n"; string(data) != want {
				t.Fatalf("written back as %q, want %q", data, want)
			}
			back, err := readManifest(base + ".manifest")
			if err != nil || len(back) != 1 || back[0] != g {
				t.Fatalf("round trip = %+v (%v), want %+v", back, err, g)
			}
		})
	}
}

// FuzzParseManifestLine feeds arbitrary manifest lines to the parser: it
// must never panic, and any line it accepts must come back as the same
// generation once written out the way writeManifest writes it.
func FuzzParseManifestLine(f *testing.F) {
	for _, seed := range []string{
		"gen 4 seq 900 inv live.polinv.g000004 crc 0a0b0c0d size 123 state live.polinv.g000004.state crc 01020304 size 456",
		"gen 5 seq 950 inv a crc 0a size 1 state b crc 0b size 2 seg c crc 0c size 3 term 9 node 00000000000000aa",
		"gen 6 seq 990 state b crc 0b size 2 seg c crc 0c size 3 term 9 node 00000000000000aa",
		"gen 7 seq 1 state s crc 00000000 size 0",
		"crc 1 gen 1 state a",
		"gen 1 state a term 0 node ff",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		g, err := parseManifestLine(line)
		if err != nil {
			return
		}
		back, err := parseManifestLine(manifestLine(g))
		if err != nil {
			t.Fatalf("%q parsed as %+v, but its written form %q fails: %v", line, g, manifestLine(g), err)
		}
		if back != g {
			t.Fatalf("%q parsed as %+v, written back as %q, re-parsed as %+v", line, g, manifestLine(g), back)
		}
	})
}

// TestEngineCheckpointRecovery corrupts checkpoint generations under a
// running engine's feet and requires cold start to land in exactly the
// uninterrupted state anyway: checksum verification rejects the bad
// generation, the fallback (or the WAL alone) covers the difference.
func TestEngineCheckpointRecovery(t *testing.T) {
	const res = 6
	// Trips span many simulated days; both halves must complete trips for
	// both checkpoint cadences to fire, hence the longer simulation.
	statics, stream, _ := fleetStream(t, sim.Config{Vessels: 6, Days: 24, Seed: 11}, res)
	dir := t.TempDir()
	journal := filepath.Join(dir, "wal")
	ckpt := filepath.Join(dir, "live.polinv")
	half := len(stream) / 2

	ctl, err := NewEngine(Options{Resolution: res})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	submitAll(t, ctl, statics, stream)
	if err := ctl.Finalize(); err != nil {
		t.Fatal(err)
	}

	e1, err := NewEngine(Options{
		Resolution:      res,
		JournalPath:     journal,
		CheckpointPath:  ckpt,
		CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two finalizes with traffic in between → two checkpoint generations.
	// (Wait for the first background checkpoint to land, or the second
	// cadence would be skipped while it is still writing.)
	submitAll(t, e1, statics, stream[:half])
	if err := e1.Finalize(); err != nil {
		t.Fatal(err)
	}
	deadlineFirst := time.Now().Add(30 * time.Second)
	for e1.StatsSnapshot().Checkpoints < 1 {
		if time.Now().After(deadlineFirst) {
			t.Fatal("first checkpoint never landed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, rec := range stream[half:] {
		if err := e1.SubmitPosition(rec, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := e1.Finalize(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for e1.StatsSnapshot().Checkpoints < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d checkpoints landed", e1.StatsSnapshot().Checkpoints)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := e1.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	gens, err := readManifest(ckpt + ".manifest")
	if err != nil || len(gens) < 2 {
		t.Fatalf("manifest has %d generations (%v), want >=2", len(gens), err)
	}

	// Corrupt the newest generation: restart must fall back and replay the
	// WAL suffix into exactly the uninterrupted state.
	flipByte(t, filepath.Join(dir, gens[0].Seg))
	e2, err := NewEngine(Options{
		Resolution:     res,
		JournalPath:    journal,
		CheckpointPath: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Finalize(); err != nil {
		t.Fatal(err)
	}
	diffInventories(t, e2.Snapshot(), ctl.Snapshot(), "fallback generation + WAL suffix")
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt every generation: restart recovers from the WAL alone.
	for _, g := range gens {
		flipByte(t, filepath.Join(dir, g.State))
	}
	e3, err := NewEngine(Options{
		Resolution:     res,
		JournalPath:    journal,
		CheckpointPath: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	if err := e3.Finalize(); err != nil {
		t.Fatal(err)
	}
	diffInventories(t, e3.Snapshot(), ctl.Snapshot(), "WAL-only recovery")
}

// TestEngineDegradedResume breaks the journal with an injected append
// fault mid-stream: the engine must keep serving its last snapshot
// (ready, flagged degraded), drop instead of half-apply, and after the
// fault clears re-base on a fresh checkpoint and resume. Re-feeding the
// lost suffix then converges to the uninterrupted state.
func TestEngineDegradedResume(t *testing.T) {
	const res = 6
	// Long enough that the first half completes trips and publishes a
	// non-empty snapshot before the injected outage.
	statics, stream, _ := fleetStream(t, sim.Config{Vessels: 6, Days: 24, Seed: 13}, res)
	dir := t.TempDir()
	half := len(stream) / 2

	ctl, err := NewEngine(Options{Resolution: res})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	submitAll(t, ctl, statics, stream)
	if err := ctl.Finalize(); err != nil {
		t.Fatal(err)
	}

	reg := fault.New()
	e, err := NewEngine(Options{
		Resolution:      res,
		MergeEvery:      20 * time.Millisecond,
		JournalPath:     filepath.Join(dir, "wal"),
		CheckpointPath:  filepath.Join(dir, "live.polinv"),
		CheckpointEvery: 1,
		Faults:          reg,
		RetryBase:       5 * time.Millisecond,
		RetryMax:        50 * time.Millisecond,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	submitAll(t, e, statics, stream[:half])
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	// Wait for a merge tick to publish the half-stream snapshot so the
	// engine is "ready" before the outage begins.
	waitReady := time.Now().Add(10 * time.Second)
	for e.Snapshot().Len() == 0 {
		if time.Now().After(waitReady) {
			t.Fatal("no snapshot published from the first half")
		}
		time.Sleep(5 * time.Millisecond)
	}
	groupsBefore := e.Snapshot().Len()

	// Permanent append failure: every write to the WAL now fails, as if
	// the disk vanished. The engine may flap (probe succeeds, next append
	// fails again) — that is the rearm path working.
	if err := reg.Enable(FPJournalAppend, "error(no space left on device)"); err != nil {
		t.Fatal(err)
	}
	for _, rec := range stream[half:] {
		if err := e.SubmitPosition(rec, nil); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		s := e.StatsSnapshot()
		if s.Degraded && s.DegradedDropped > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine never degraded: %+v", s)
		}
		time.Sleep(5 * time.Millisecond)
	}
	s := e.StatsSnapshot()
	if s.DegradedReason == "" || s.JournalErrors == 0 {
		t.Fatalf("degraded without reason or journal errors: %+v", s)
	}
	if ready, detail := e.ReadyDetail(); !ready || detail == "" {
		t.Fatalf("degraded engine ReadyDetail = (%v, %q), want ready with detail", ready, detail)
	}
	if got := e.Snapshot().Len(); got < groupsBefore {
		t.Fatalf("degraded engine lost its snapshot: %d groups, had %d", got, groupsBefore)
	}

	// Disk comes back: the prober must checkpoint, reopen the journal past
	// the lost tail, and clear the degraded flag.
	reg.Disable(FPJournalAppend)
	resumeBy := time.Now().Add(60 * time.Second)
	for {
		s := e.StatsSnapshot()
		if !s.Degraded && s.Resumes > 0 {
			break
		}
		if time.Now().After(resumeBy) {
			t.Fatalf("engine never resumed: %+v", s)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The upstream re-feeds everything since its last acknowledged sync;
	// records applied before the outage are deduplicated by the cleaner.
	submitAll(t, e, statics, stream[half:])
	if err := e.Finalize(); err != nil {
		t.Fatal(err)
	}
	diffInventories(t, e.Snapshot(), ctl.Snapshot(), "resumed vs uninterrupted")

	// The resumed journal must carry the whole state: a cold restart from
	// checkpoint + WAL reproduces it.
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(Options{
		Resolution:     res,
		JournalPath:    filepath.Join(dir, "wal"),
		CheckpointPath: filepath.Join(dir, "live.polinv"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if err := e2.Finalize(); err != nil {
		t.Fatal(err)
	}
	diffInventories(t, e2.Snapshot(), ctl.Snapshot(), "restart after resume")
}

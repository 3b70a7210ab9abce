package segment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"github.com/patternsoflife/pol/internal/fault"
	"github.com/patternsoflife/pol/internal/inventory"
)

// pinnedSegmentSHA256 is the SHA-256 of the shared fixture's segment with
// BuiltUnix pinned, as written by the original one-shard-at-a-time
// writer. Any change to block, index or tail bytes breaks it.
const pinnedSegmentSHA256 = "e54ff121f530202ce17a15e0e1f3509a016eaca6266d977a537e21a96c2dcc12"

// pinnedView is a view whose build timestamp is fixed, so the segment
// bytes depend only on the groups.
type pinnedView struct{ inventory.View }

func (v pinnedView) Info() inventory.BuildInfo {
	info := v.View.Info()
	info.BuiltUnix = 1_700_000_000
	return info
}

// writePinned writes the pinned fixture and returns the file bytes.
func writePinned(t *testing.T) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pinned.polseg")
	if err := WriteFile(pinnedView{fixture(t)}, path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWriteDeterministicAcrossGOMAXPROCS requires the writer's output to
// be independent of how many shards it encodes at once.
func TestWriteDeterministicAcrossGOMAXPROCS(t *testing.T) {
	fixture(t) // build at the ambient GOMAXPROCS, outside the comparison
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	serial := writePinned(t)
	runtime.GOMAXPROCS(4)
	parallel := writePinned(t)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("GOMAXPROCS=1 wrote %d bytes, GOMAXPROCS=4 wrote %d bytes, contents differ", len(serial), len(parallel))
	}
}

// TestWritePinnedBytes pins the whole file against the original writer's
// output.
func TestWritePinnedBytes(t *testing.T) {
	sum := sha256.Sum256(writePinned(t))
	if got := hex.EncodeToString(sum[:]); got != pinnedSegmentSHA256 {
		t.Fatalf("segment SHA-256 %s, want %s", got, pinnedSegmentSHA256)
	}
}

// TestWriteBlockFailpointMidStream arms the block failpoint at the k-th
// hit: the error must surface, no file may appear, and every encoding
// worker must have exited when WriteFile returns.
func TestWriteBlockFailpointMidStream(t *testing.T) {
	inv := fixture(t)
	_, st := writeFixture(t, inv)
	nblocks := st.Blocks
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	baseline := runtime.NumGoroutine()
	for _, k := range []int{0, 1, nblocks / 2, nblocks - 1} {
		dir := t.TempDir()
		path := filepath.Join(dir, "out.polseg")
		if err := fault.Default().Enable(FPWriteBlock, "error(segment disk gone)*1@"+strconv.Itoa(k)); err != nil {
			t.Fatal(err)
		}
		err := WriteFile(inv, path)
		fault.Default().Disable(FPWriteBlock)
		if !fault.IsInjected(err) {
			t.Fatalf("k=%d: want injected error, got %v", k, err)
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
			t.Fatalf("k=%d: failed write left %v behind (%v)", k, entries, err)
		}
		// Exited goroutines can linger in the count briefly after their
		// last statement; wait for them to leave.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > baseline {
			t.Fatalf("k=%d: %d goroutines after the failed write, %d before", k, n, baseline)
		}
	}
}

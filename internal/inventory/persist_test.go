package inventory_test

// Persistence tests: every inventory on disk is a POLSEG1 segment, so
// random access and checksumming are exercised through internal/segment.

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/segment"
)

func TestFileRandomAccess(t *testing.T) {
	inv, _ := inventory.BuildTestInventory(t, 6)
	path := filepath.Join(t.TempDir(), "ra.polseg")
	if err := segment.WriteFile(inv, path); err != nil {
		t.Fatal(err)
	}
	r, err := segment.Open(path, segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != inv.Len() {
		t.Errorf("groups %d, want %d", r.Len(), inv.Len())
	}
	if r.Info().Resolution != 6 {
		t.Errorf("info %+v", r.Info())
	}
	// Every key present in memory must be found on disk with equal records.
	checked := 0
	inv.Each(func(k inventory.GroupKey, want *inventory.CellSummary) bool {
		s, ok, err := r.Lookup(k)
		if err != nil {
			t.Fatalf("lookup %v: %v", k, err)
		}
		if !ok {
			t.Fatalf("key %v missing on disk", k)
		}
		if s.Records != want.Records {
			t.Fatalf("key %v: records %d, want %d", k, s.Records, want.Records)
		}
		checked++
		return checked < 50
	})
	// Missing keys return not-found without error.
	miss := inventory.NewGroupKey(inventory.GSCell, hexgrid.LatLngToCell(geo.LatLng{Lat: -60, Lng: -60}, 6), 0, 0, 0)
	if _, ok, err := r.Lookup(miss); err != nil || ok {
		t.Errorf("missing key: ok=%v err=%v", ok, err)
	}
}

// TestWriteFileSumMatchesChecksumFile checks that the CRC32C a segment
// write reports (what checkpoint manifests record) is the one
// ChecksumFile recomputes at cold start.
func TestWriteFileSumMatchesChecksumFile(t *testing.T) {
	inv, _ := inventory.BuildTestInventory(t, 6)
	path := filepath.Join(t.TempDir(), "inv.polseg")
	st, err := segment.WriteFileSum(inv, path)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != st.Size {
		t.Fatalf("reported size %d, on disk %d", st.Size, fi.Size())
	}
	gotSum, gotSize, err := inventory.ChecksumFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotSum != st.Sum || gotSize != st.Size {
		t.Fatalf("ChecksumFile = (%08x, %d), WriteFileSum reported (%08x, %d)",
			gotSum, gotSize, st.Sum, st.Size)
	}
	// Any byte flip must change the checksum.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	flipSum, _, err := inventory.ChecksumFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if flipSum == st.Sum {
		t.Fatal("checksum unchanged after byte flip")
	}
}

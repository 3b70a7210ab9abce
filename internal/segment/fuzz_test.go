package segment

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/patternsoflife/pol/internal/inventory"
)

// FuzzSegmentLoad feeds arbitrary bytes to Load, the decoder heap
// replicas run on segments fetched over the network. Load must never
// panic, and every rejection must be typed as ErrCorrupt.
func FuzzSegmentLoad(f *testing.F) {
	inv := fixture(f)
	// A few groups keep the seeds small enough to mutate quickly; the full
	// fixture and its damaged copies cover every block layout.
	small := inventory.New(inv.Info())
	inv.Each(func(k inventory.GroupKey, s *inventory.CellSummary) bool {
		small.Put(k, s)
		return small.Len() < 6
	})
	for _, v := range []*inventory.Inventory{small, inv} {
		path, st := writeFixture(f, v)
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		// The truncations and bit flips of TestTruncatedSegment and
		// TestBitFlipMatrix: the header, first block, index and tail.
		for _, n := range []int64{0, 1, headerFixedLen - 1, headerFixedLen + 3, st.Size / 2, st.Size - TailLen - 1, st.Size - TailLen, st.Size - 8, st.Size - 1} {
			f.Add(data[:n])
		}
		for _, p := range []int64{0, 9, headerFixedLen + 1, st.Size / 2, st.Size - TailLen - 5, st.Size - TailLen + 2, st.Size - 12, st.Size - 1} {
			flipped := append([]byte(nil), data...)
			flipped[p] ^= 0x10
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.polseg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("untyped error: %v", err)
		}
	})
}

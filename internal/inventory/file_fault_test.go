package inventory

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/patternsoflife/pol/internal/fault"
)

func TestAtomicWriteFaultLeavesOldFile(t *testing.T) {
	inv, _ := buildTestInventory(t, 6)
	dir := t.TempDir()
	path := filepath.Join(dir, "inv.polinv")
	before := writeImage(t, inv, path)
	write := func() error {
		return AtomicWrite(path, func(w io.Writer) error {
			_, err := w.Write(before)
			return err
		})
	}

	for _, fp := range []string{FPWriteSync, FPWriteRename} {
		t.Run(fp, func(t *testing.T) {
			if err := fault.Default().Enable(fp, "error(disk gone)*1"); err != nil {
				t.Fatal(err)
			}
			defer fault.Default().Disable(fp)

			err := write()
			if err == nil {
				t.Fatal("write succeeded despite injected fault")
			}
			if !fault.IsInjected(err) {
				t.Fatalf("error lost injection marker: %v", err)
			}
			// Old artifact must be untouched and no temp debris left.
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(after) != string(before) {
				t.Fatal("failed write mutated the existing artifact")
			}
			if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("temp file left behind: %v", err)
			}
			// The artifact still decodes.
			got, err := Unmarshal(after)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != inv.Len() {
				t.Fatalf("groups %d, want %d", got.Len(), inv.Len())
			}
		})
	}

	// With faults cleared the write goes through again.
	if err := write(); err != nil {
		t.Fatal(err)
	}
}

package replica

import (
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/patternsoflife/pol/internal/ingest"
	"github.com/patternsoflife/pol/internal/inventory"
)

// parseEndpoints splits a comma-separated primary list into trimmed base
// URLs. Blank entries are dropped; an entry url.Parse rejects, or a list
// with no entry at all, is an error.
func parseEndpoints(primary string) ([]string, error) {
	var endpoints []string
	for _, ep := range strings.Split(primary, ",") {
		ep = strings.TrimRight(strings.TrimSpace(ep), "/")
		if ep == "" {
			continue
		}
		if _, err := url.Parse(ep); err != nil {
			return nil, fmt.Errorf("replica: bad primary URL %q: %w", ep, err)
		}
		endpoints = append(endpoints, ep)
	}
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("replica: primary URL required")
	}
	return endpoints, nil
}

// termMark is the sticky term high-water mark both replica kinds keep:
// the highest (term, node) pair observed from any endpoint. Any endpoint
// advertising a lower pair is a stale (demoted) primary and is never
// followed. With a path set the mark is persisted there before it takes
// effect, so a restart keeps rejecting a primary it already knows to be
// stale. Reads are lock-free; hwMu serializes raise-and-persist.
type termMark struct {
	hwPath string
	hwMu   sync.Mutex
	hwTerm atomic.Uint64
	hwNode atomic.Uint64
}

// openHW sets the persistence path ("" keeps the mark in memory only)
// and restores the mark saved there. A missing file is (0, 0): no term
// observed yet.
func (m *termMark) openHW(path string) error {
	m.hwPath = path
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("replica: term file: %w", err)
	}
	var term, node uint64
	if _, err := fmt.Sscanf(string(data), "POLTERM1\nterm %d node %x", &term, &node); err != nil {
		return fmt.Errorf("replica: term file %s: malformed: %w", path, err)
	}
	m.hwTerm.Store(term)
	m.hwNode.Store(node)
	return nil
}

// raiseHW lifts the mark to (term, node) if it beats the current one,
// persisting the new mark before it takes effect for callers.
func (m *termMark) raiseHW(term, node uint64) error {
	if term == 0 {
		return nil
	}
	m.hwMu.Lock()
	defer m.hwMu.Unlock()
	if !ingest.TermBeats(term, node, m.hwTerm.Load(), m.hwNode.Load()) {
		return nil
	}
	if m.hwPath != "" {
		err := inventory.AtomicWrite(m.hwPath, func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "POLTERM1\nterm %d node %016x\n", term, node)
			return err
		})
		if err != nil {
			return fmt.Errorf("replica: persist term high-water: %w", err)
		}
	}
	m.hwTerm.Store(term)
	m.hwNode.Store(node)
	return nil
}

// staleHW reports whether a (term, node) claim falls below the mark —
// the claim of a demoted primary.
func (m *termMark) staleHW(term, node uint64) bool {
	return ingest.TermBeats(m.hwTerm.Load(), m.hwNode.Load(), term, node)
}

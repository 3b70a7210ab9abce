package stats

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestHLLEmpty(t *testing.T) {
	h := NewHyperLogLog(HLLPrecision)
	if !h.IsEmpty() {
		t.Error("new sketch must be empty")
	}
	if got := h.Estimate(); got != 0 {
		t.Errorf("empty estimate %d, want 0", got)
	}
}

func TestHLLSmallExact(t *testing.T) {
	// Linear counting keeps small cardinalities near-exact.
	h := NewHyperLogLog(HLLPrecision)
	for i := uint64(0); i < 100; i++ {
		h.AddUint64(i)
	}
	got := h.Estimate()
	if got < 90 || got > 110 {
		t.Errorf("estimate %d, want ≈ 100", got)
	}
}

func TestHLLDuplicatesDontCount(t *testing.T) {
	h := NewHyperLogLog(HLLPrecision)
	for rep := 0; rep < 50; rep++ {
		for i := uint64(0); i < 200; i++ {
			h.AddUint64(i)
		}
	}
	got := h.Estimate()
	if got < 190 || got > 210 {
		t.Errorf("estimate %d, want ≈ 200 despite duplicates", got)
	}
}

func TestHLLAccuracyAcrossScales(t *testing.T) {
	for _, n := range []uint64{1000, 10000, 100000} {
		h := NewHyperLogLog(HLLPrecision)
		for i := uint64(0); i < n; i++ {
			h.AddUint64(i * 2654435761)
		}
		got := float64(h.Estimate())
		relErr := math.Abs(got-float64(n)) / float64(n)
		if relErr > 0.08 { // ~3.5 sigma at p=11
			t.Errorf("n=%d: estimate %.0f, rel err %.3f", n, got, relErr)
		}
	}
}

func TestHLLStrings(t *testing.T) {
	h := NewHyperLogLog(HLLPrecision)
	for i := 0; i < 5000; i++ {
		h.AddString(fmt.Sprintf("vessel-%d", i))
	}
	got := float64(h.Estimate())
	if math.Abs(got-5000)/5000 > 0.08 {
		t.Errorf("string estimate %.0f, want ≈ 5000", got)
	}
}

func TestHLLMergeEqualsUnion(t *testing.T) {
	a := NewHyperLogLog(HLLPrecision)
	b := NewHyperLogLog(HLLPrecision)
	union := NewHyperLogLog(HLLPrecision)
	for i := uint64(0); i < 3000; i++ {
		a.AddUint64(i)
		union.AddUint64(i)
	}
	for i := uint64(2000); i < 6000; i++ { // overlaps 2000..2999
		b.AddUint64(i)
		union.AddUint64(i)
	}
	a.Merge(b)
	if a.Estimate() != union.Estimate() {
		t.Errorf("merged estimate %d != union estimate %d", a.Estimate(), union.Estimate())
	}
}

func TestHLLMergeCommutative(t *testing.T) {
	mk := func(lo, hi uint64) *HyperLogLog {
		h := NewHyperLogLog(HLLPrecision)
		for i := lo; i < hi; i++ {
			h.AddUint64(i)
		}
		return h
	}
	ab := mk(0, 1000)
	ab.Merge(mk(500, 1500))
	ba := mk(500, 1500)
	ba.Merge(mk(0, 1000))
	if ab.Estimate() != ba.Estimate() {
		t.Error("merge must be commutative")
	}
}

func TestHLLMergeMismatchedPrecisionIgnored(t *testing.T) {
	a := NewHyperLogLog(11)
	b := NewHyperLogLog(12)
	b.AddUint64(1)
	a.Merge(b)
	if !a.IsEmpty() {
		t.Error("mismatched precision merge must be ignored")
	}
	a.Merge(nil)
}

func TestHLLPrecisionClamp(t *testing.T) {
	if got := NewHyperLogLog(1).numRegisters(); got != 16 {
		t.Errorf("precision clamps to 4: %d registers", got)
	}
	if got := NewHyperLogLog(20).numRegisters(); got != 65536 {
		t.Errorf("precision clamps to 16: %d registers", got)
	}
}

func TestHLLSparseToDensePromotion(t *testing.T) {
	h := NewHyperLogLog(HLLPrecision)
	// Below the limit the sketch stays sparse.
	for i := uint64(0); i < 50; i++ {
		h.AddUint64(i)
	}
	if h.registers != nil {
		t.Fatal("sketch with 50 values should still be sparse")
	}
	sparseEstimate := h.Estimate()
	// Push past the promotion threshold.
	for i := uint64(50); i < 5000; i++ {
		h.AddUint64(i)
	}
	if h.registers == nil {
		t.Fatal("sketch with 5000 values must be dense")
	}
	if h.sparse != nil {
		t.Fatal("dense sketch must drop the sparse array")
	}
	_ = sparseEstimate
}

func TestHLLSparseAndDenseAgree(t *testing.T) {
	// The same values inserted into a sparse sketch and a pre-densified
	// sketch must produce identical registers and estimates.
	sparse := NewHyperLogLog(HLLPrecision)
	dense := NewHyperLogLog(HLLPrecision)
	dense.densify()
	for i := uint64(0); i < 100; i++ {
		sparse.AddUint64(i * 7919)
		dense.AddUint64(i * 7919)
	}
	if sparse.registers != nil {
		t.Fatal("fixture assumes sparse stays sparse at 100 values")
	}
	if sparse.Estimate() != dense.Estimate() {
		t.Errorf("estimates differ: sparse %d, dense %d", sparse.Estimate(), dense.Estimate())
	}
	if sparse.Occupied() != dense.Occupied() {
		t.Errorf("occupied differ: %d vs %d", sparse.Occupied(), dense.Occupied())
	}
	for idx := uint32(0); idx < uint32(sparse.numRegisters()); idx++ {
		if sparse.register(idx) != dense.register(idx) {
			t.Fatalf("register %d differs", idx)
		}
	}
	// Binary encodings are identical too (the format is representation
	// independent).
	sb := sparse.AppendBinary(nil)
	db := dense.AppendBinary(nil)
	if string(sb) != string(db) {
		t.Error("binary encodings differ between representations")
	}
}

func TestHLLMergeAcrossRepresentations(t *testing.T) {
	mk := func(lo, hi uint64, denseFirst bool) *HyperLogLog {
		h := NewHyperLogLog(HLLPrecision)
		if denseFirst {
			h.densify()
		}
		for i := lo; i < hi; i++ {
			h.AddUint64(i)
		}
		return h
	}
	want := mk(0, 2000, true).Estimate()
	// sparse ← dense
	a := mk(0, 100, false)
	a.Merge(mk(100, 2000, true))
	if a.Estimate() != want {
		t.Errorf("sparse←dense merge: %d, want %d", a.Estimate(), want)
	}
	// dense ← sparse
	b := mk(0, 1900, true)
	b.Merge(mk(1900, 2000, false))
	if b.Estimate() != want {
		t.Errorf("dense←sparse merge: %d, want %d", b.Estimate(), want)
	}
	// sparse ← sparse staying sparse
	c := mk(0, 30, false)
	c.Merge(mk(30, 60, false))
	if c.registers != nil {
		t.Error("small sparse merge must stay sparse")
	}
	if c.Occupied() == 0 {
		t.Error("merge lost values")
	}
}

func TestHLLBinaryRoundTrip(t *testing.T) {
	for _, n := range []uint64{0, 1, 50, 20000} {
		h := NewHyperLogLog(HLLPrecision)
		for i := uint64(0); i < n; i++ {
			h.AddUint64(i)
		}
		buf := h.AppendBinary(nil)
		got, rest, err := DecodeHyperLogLog(buf)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(rest) != 0 {
			t.Errorf("n=%d: %d trailing bytes", n, len(rest))
		}
		if got.Estimate() != h.Estimate() {
			t.Errorf("n=%d: estimate %d after round trip, want %d", n, got.Estimate(), h.Estimate())
		}
	}
}

func TestHLLBinarySparseIsSmall(t *testing.T) {
	h := NewHyperLogLog(HLLPrecision)
	h.AddUint64(7)
	if size := len(h.AppendBinary(nil)); size > 64 {
		t.Errorf("sparse sketch encodes to %d bytes, want small", size)
	}
}

// register returns one register value regardless of representation.
func (h *HyperLogLog) register(idx uint32) uint8 {
	if h.registers != nil {
		return h.registers[idx]
	}
	i := sort.Search(len(h.sparse), func(i int) bool { return h.sparse[i]>>8 >= idx })
	if i < len(h.sparse) && h.sparse[i]>>8 == idx {
		return uint8(h.sparse[i])
	}
	return 0
}

// referenceAppendBinary is the original register-walk encoder, kept as
// the byte-identity oracle for AppendBinary. It looks up every register
// one at a time and densifies for the raw layout, so it runs on a copy to
// leave the caller's sketch untouched.
func referenceAppendBinary(orig *HyperLogLog, buf []byte) []byte {
	h := &HyperLogLog{p: orig.p}
	if orig.registers != nil {
		h.registers = append([]uint8(nil), orig.registers...)
	} else {
		h.sparse = append([]uint32(nil), orig.sparse...)
	}
	buf = append(buf, h.p)
	n := uint32(h.numRegisters())
	if occupied := h.Occupied(); occupied*5+5 >= int(n) {
		buf = append(buf, hllModeRaw)
		h.densify()
		return append(buf, h.registers...)
	}
	buf = append(buf, hllModeRLE)
	i := uint32(0)
	for i < n {
		run := uint32(0)
		for i < n && h.register(i) == 0 {
			i++
			run++
		}
		if i >= n {
			buf = appendU32(buf, run)
			buf = append(buf, 0)
			break
		}
		buf = appendU32(buf, run)
		buf = append(buf, h.register(i))
		i++
	}
	return buf
}

// seededSketch returns a sketch of precision p with exactly occupied
// non-zero registers at seeded random positions, plus register 0 and/or
// the last register when first/last are set. With dense the sketch is
// densified before filling; otherwise it promotes itself as usual.
func seededSketch(rng *rand.Rand, p uint8, occupied int, first, last, dense bool) *HyperLogLog {
	h := NewHyperLogLog(p)
	if dense {
		h.densify()
	}
	n := h.numRegisters()
	var idxs []uint32
	if first {
		idxs = append(idxs, 0)
	}
	if last {
		idxs = append(idxs, uint32(n-1))
	}
	for _, i := range rng.Perm(n - 2) {
		if len(idxs) >= occupied {
			break
		}
		idxs = append(idxs, uint32(i+1))
	}
	for _, idx := range idxs {
		h.setRegister(idx, uint8(1+rng.Intn(64-int(p))))
	}
	return h
}

// TestHLLAppendBinaryMatchesReference is the byte-identity oracle: the
// single-pass encoder must emit exactly the bytes of the register-walk
// encoder on every layout and both representations, and every encoding
// must decode back to the same registers.
func TestHLLAppendBinaryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20240325))
	for _, p := range []uint8{4, 8, 11, 14} {
		n := 1 << p
		rawAt := (n - 5 + 4) / 5 // smallest occupancy choosing the raw layout
		counts := []int{0, 1, 2, 7, 50, 128, 129, 300, 408, rawAt - 1, rawAt, rawAt + 1, n / 2, n}
		for _, occ := range counts {
			if occ > n {
				continue
			}
			for _, shape := range []struct {
				name        string
				first, last bool
			}{{"mid", false, false}, {"first", true, false}, {"last", false, true}, {"both", true, true}} {
				for _, dense := range []bool{false, true} {
					name := fmt.Sprintf("p%d/occ%d/%s/dense=%v", p, occ, shape.name, dense)
					h := seededSketch(rng, p, occ, shape.first, shape.last, dense)
					want := referenceAppendBinary(h, []byte("prefix"))
					got := h.AppendBinary([]byte("prefix"))
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: encoding differs from reference (%d vs %d bytes)", name, len(got), len(want))
					}
					dec, rest, err := DecodeHyperLogLog(got[len("prefix"):])
					if err != nil || len(rest) != 0 {
						t.Fatalf("%s: decode: %v, %d trailing bytes", name, err, len(rest))
					}
					if dec.Occupied() != h.Occupied() {
						t.Fatalf("%s: decoded %d occupied, want %d", name, dec.Occupied(), h.Occupied())
					}
					for i := uint32(0); i < uint32(n); i++ {
						if dec.register(i) != h.register(i) {
							t.Fatalf("%s: register %d decoded %d, want %d", name, i, dec.register(i), h.register(i))
						}
					}
					if again := dec.AppendBinary(nil); !bytes.Equal(again, got[len("prefix"):]) {
						t.Fatalf("%s: re-encoding the decoded sketch differs", name)
					}
				}
			}
		}
	}
}

// TestHLLAppendBinaryLayouts pins the cases the oracle must cover: the
// empty terminator, a set last register ending without a terminator, RLE
// from a dense sketch, and the raw layout from a sparse one.
func TestHLLAppendBinaryLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))

	empty := NewHyperLogLog(HLLPrecision).AppendBinary(nil)
	if want := []byte{HLLPrecision, hllModeRLE, 0, 8, 0, 0, 0}; !bytes.Equal(empty, want) {
		t.Fatalf("empty sketch encodes to %v, want %v", empty, want)
	}

	last := NewHyperLogLog(HLLPrecision)
	last.setRegister(1<<HLLPrecision-1, 3)
	if want := []byte{HLLPrecision, hllModeRLE, 0xff, 0x07, 0, 0, 3}; !bytes.Equal(last.AppendBinary(nil), want) {
		t.Fatalf("last-register sketch encodes to %v, want %v (no terminator)", last.AppendBinary(nil), want)
	}

	denseRLE := seededSketch(rng, HLLPrecision, 300, false, false, false)
	if denseRLE.registers == nil {
		t.Fatal("fixture: 300 occupied registers at p=11 must be dense")
	}
	if enc := denseRLE.AppendBinary(nil); enc[1] != hllModeRLE || len(enc) != 2+5*300+5 {
		t.Fatalf("dense sketch with 300 occupied: mode %d, %d bytes", enc[1], len(enc))
	}

	rawSparse := seededSketch(rng, 8, 80, false, false, false)
	if rawSparse.registers != nil {
		t.Fatal("fixture: 80 occupied registers at p=8 must stay sparse")
	}
	if enc := rawSparse.AppendBinary(nil); enc[1] != hllModeRaw || len(enc) != 2+256 {
		t.Fatalf("sparse p=8 sketch with 80 occupied: mode %d, %d bytes", enc[1], len(enc))
	}
	if rawSparse.registers != nil || len(rawSparse.sparse) != 80 {
		t.Fatal("encoding changed the sketch's representation")
	}
}

// TestHLLAppendBinaryConcurrentReaders encodes one shared sparse sketch
// whose encoding takes the raw layout from two goroutines at once: the
// encoder must only read it (run under -race), every encoding must be the
// same, and the sketch must stay sparse.
func TestHLLAppendBinaryConcurrentReaders(t *testing.T) {
	h := seededSketch(rand.New(rand.NewSource(11)), 8, 80, true, true, false)
	sparse := append([]uint32(nil), h.sparse...)
	want := referenceAppendBinary(h, nil)
	if want[1] != hllModeRaw {
		t.Fatal("fixture must take the raw layout")
	}

	var wg sync.WaitGroup
	encs := make([][]byte, 2)
	for g := range encs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []byte
			for i := 0; i < 200; i++ {
				buf = h.AppendBinary(buf[:0])
			}
			encs[g] = buf
		}(g)
	}
	wg.Wait()
	for g, enc := range encs {
		if !bytes.Equal(enc, want) {
			t.Fatalf("goroutine %d: encoding differs from reference", g)
		}
	}
	if h.registers != nil {
		t.Fatal("encoding densified the shared sketch")
	}
	if !equalU32(h.sparse, sparse) {
		t.Fatal("encoding changed the sparse entries")
	}
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestHLLDecodeCorrupt(t *testing.T) {
	if _, _, err := DecodeHyperLogLog(nil); err == nil {
		t.Error("empty input must fail")
	}
	if _, _, err := DecodeHyperLogLog([]byte{3}); err == nil {
		t.Error("bad precision must fail")
	}
	h := NewHyperLogLog(HLLPrecision)
	h.AddUint64(1)
	buf := h.AppendBinary(nil)
	if _, _, err := DecodeHyperLogLog(buf[:len(buf)-2]); err == nil {
		t.Error("truncated input must fail")
	}
}

func TestMix64Distribution(t *testing.T) {
	// Consecutive integers must hash to well-spread values: check bucket
	// uniformity over 256 buckets.
	const n = 100000
	var buckets [256]int
	for i := uint64(0); i < n; i++ {
		buckets[Mix64(i)>>56]++
	}
	want := n / 256
	for i, c := range buckets {
		if c < want/2 || c > want*2 {
			t.Errorf("bucket %d has %d values, want ≈ %d", i, c, want)
		}
	}
}

func TestHashStringDistinct(t *testing.T) {
	seen := make(map[uint64]string)
	for i := 0; i < 10000; i++ {
		s := fmt.Sprintf("key-%d", i)
		h := HashString(s)
		if prev, ok := seen[h]; ok {
			t.Fatalf("collision: %q and %q", prev, s)
		}
		seen[h] = s
	}
}

func BenchmarkHLLAdd(b *testing.B) {
	h := NewHyperLogLog(HLLPrecision)
	for i := 0; i < b.N; i++ {
		h.AddUint64(uint64(i))
	}
}

func BenchmarkHLLEstimate(b *testing.B) {
	h := NewHyperLogLog(HLLPrecision)
	for i := uint64(0); i < 100000; i++ {
		h.AddUint64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Estimate()
	}
}

func BenchmarkHLLMerge(b *testing.B) {
	x := NewHyperLogLog(HLLPrecision)
	y := NewHyperLogLog(HLLPrecision)
	for i := uint64(0); i < 10000; i++ {
		x.AddUint64(i)
		y.AddUint64(i + 5000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z := NewHyperLogLog(HLLPrecision)
		z.Merge(x)
		z.Merge(y)
	}
}

var hllSink []byte

func BenchmarkHLLAppendBinary(b *testing.B) {
	for _, c := range []struct {
		name     string
		occupied int
	}{{"sparse", 60}, {"dense", 300}} {
		h := seededSketch(rand.New(rand.NewSource(3)), HLLPrecision, c.occupied, false, false, false)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]byte, 0, 4096)
			for i := 0; i < b.N; i++ {
				buf = h.AppendBinary(buf[:0])
			}
			hllSink = buf
		})
	}
}

package segment

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/patternsoflife/pol/internal/fault"
	"github.com/patternsoflife/pol/internal/inventory"
)

// Failpoints on the segment write path, for crash-consistency and
// fault-matrix tests. Armed via the default fault registry
// (POL_FAILPOINTS), like the inventory and WAL write failpoints.
const (
	// FPWriteBlock fires before each shard block is emitted.
	FPWriteBlock = "segment.write.block"
	// FPWriteIndex fires before the footer index is emitted.
	FPWriteIndex = "segment.write.index"
)

// WriteStats reports what a segment write produced.
type WriteStats struct {
	Groups   int   // groups written
	Blocks   int   // non-empty shard blocks
	RawBytes int64 // uncompressed block bytes
	Sum      uint32
	Size     int64 // total file size
}

// WriteFile serializes a frozen inventory view into a POLSEG1 segment at
// path through inventory.AtomicWrite (temp + fsync + rename): a crash
// leaves either the old complete file or the new complete file, never a
// hybrid.
func WriteFile(v inventory.View, path string) error {
	_, err := WriteFileSum(v, path)
	return err
}

// WriteFileSum is WriteFile plus whole-file CRC32C/size (for checkpoint
// manifests) and the write stats.
func WriteFileSum(v inventory.View, path string) (st WriteStats, err error) {
	err = inventory.AtomicWrite(path, func(w io.Writer) error {
		cw := &crcWriter{w: w}
		s, err := writeTo(v, cw)
		if err != nil {
			return err
		}
		st = s
		st.Sum, st.Size = cw.sum, cw.n
		return nil
	})
	return st, err
}

// crcWriter folds a CRC32C over everything written through it.
type crcWriter struct {
	w   io.Writer
	sum uint32
	n   int64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.sum = crc32.Update(c.sum, crcTable, p[:n])
	c.n += int64(n)
	return n, err
}

// entry is one group bucketed into its shard.
type entry struct {
	keyEnc  [inventory.EncodedKeyLen]byte
	set     inventory.GroupSet
	summary *inventory.CellSummary
}

// encodedBlock is one shard block as an encoding worker hands it to the
// emitter: everything but the file offset and the CRC.
type encodedBlock struct {
	info BlockInfo
	comp *bytes.Buffer
	err  error
}

// writeTo streams the encoded segment. Groups are bucketed into their
// shards here; the non-empty shards are then sorted, column-encoded and
// compressed on GOMAXPROCS workers, while this goroutine emits the
// finished blocks strictly in shard order — so the bytes are exactly
// those of encoding the shards one after another.
func writeTo(v inventory.View, w *crcWriter) (WriteStats, error) {
	var st WriteStats

	var shards [inventory.ShardCount][]entry
	var kb []byte
	v.Each(func(k inventory.GroupKey, s *inventory.CellSummary) bool {
		e := entry{set: k.Set, summary: s}
		kb = inventory.AppendKey(kb[:0], k)
		copy(e.keyEnc[:], kb)
		si := inventory.ShardOf(k)
		shards[si] = append(shards[si], e)
		st.Groups++
		return true
	})

	info := v.Info()
	var head []byte
	head = append(head, segMagic...)
	head = binary.LittleEndian.AppendUint32(head, segVersion)
	head = binary.LittleEndian.AppendUint32(head, uint32(info.Resolution))
	head = binary.LittleEndian.AppendUint64(head, uint64(info.RawRecords))
	head = binary.LittleEndian.AppendUint64(head, uint64(info.UsedRecords))
	head = binary.LittleEndian.AppendUint64(head, uint64(info.BuiltUnix))
	head = binary.LittleEndian.AppendUint32(head, uint32(len(info.Description)))
	head = append(head, info.Description...)
	headerLen, headerCRC := len(head), CRC(head)
	if _, err := w.Write(head); err != nil {
		return st, fmt.Errorf("segment: header: %w", err)
	}

	var work []int // non-empty shard ids, ascending
	for si := range shards {
		if len(shards[si]) > 0 {
			work = append(work, si)
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(work))
	// Each block in flight holds one compressed-output buffer; a worker
	// takes one before claiming a shard and the emitter returns it once
	// the block is written, so workers run at most this far ahead.
	free := make(chan *bytes.Buffer, 2*workers)
	for i := 0; i < cap(free); i++ {
		free <- new(bytes.Buffer)
	}
	done := make([]chan encodedBlock, len(work))
	for j := range done {
		done[j] = make(chan encodedBlock, 1)
	}
	var next atomic.Int64 // next index into work to claim
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var enc shardEncoder
			for {
				var comp *bytes.Buffer
				select {
				case comp = <-free:
				case <-stop:
					return
				}
				j := int(next.Add(1)) - 1
				if j >= len(work) {
					return
				}
				done[j] <- enc.encode(work[j], shards[work[j]], comp)
			}
		}()
	}

	var blocks []BlockInfo
	for j, si := range work {
		if err := fault.Hit(FPWriteBlock); err != nil {
			return st, fmt.Errorf("segment: block %d: %w", si, err)
		}
		b := <-done[j]
		if b.err != nil {
			return st, b.err
		}
		bi := b.info
		bi.Off = w.n
		bi.CRC = CRC(b.comp.Bytes())
		if _, err := w.Write(b.comp.Bytes()); err != nil {
			return st, fmt.Errorf("segment: shard %d: %w", si, err)
		}
		free <- b.comp
		blocks = append(blocks, bi)
		st.Blocks++
		st.RawBytes += int64(bi.RawLen)
	}

	if err := fault.Hit(FPWriteIndex); err != nil {
		return st, fmt.Errorf("segment: index: %w", err)
	}
	indexOff := w.n
	idx := make([]byte, 0, 4+len(blocks)*indexEntryLen)
	idx = binary.LittleEndian.AppendUint32(idx, uint32(len(blocks)))
	for _, bi := range blocks {
		idx = binary.LittleEndian.AppendUint16(idx, uint16(bi.Shard))
		idx = binary.LittleEndian.AppendUint64(idx, uint64(bi.Off))
		idx = binary.LittleEndian.AppendUint32(idx, bi.CompLen)
		idx = binary.LittleEndian.AppendUint32(idx, bi.RawLen)
		idx = binary.LittleEndian.AppendUint32(idx, bi.CRC)
		idx = binary.LittleEndian.AppendUint32(idx, bi.NGroups)
		for s := 0; s < 3; s++ {
			idx = binary.LittleEndian.AppendUint32(idx, bi.NSet[s])
		}
	}
	if _, err := w.Write(idx); err != nil {
		return st, fmt.Errorf("segment: index: %w", err)
	}

	var tail []byte
	tail = binary.LittleEndian.AppendUint64(tail, uint64(indexOff))
	tail = binary.LittleEndian.AppendUint32(tail, uint32(len(idx)))
	tail = binary.LittleEndian.AppendUint32(tail, CRC(idx))
	tail = binary.LittleEndian.AppendUint32(tail, uint32(headerLen))
	tail = binary.LittleEndian.AppendUint32(tail, headerCRC)
	tail = binary.LittleEndian.AppendUint64(tail, uint64(st.Groups))
	tail = append(tail, tailMagic...)
	if _, err := w.Write(tail); err != nil {
		return st, fmt.Errorf("segment: tail: %w", err)
	}
	return st, nil
}

// shardEncoder is one worker's reusable state: the raw column buffer and
// the flate writer, reset onto each block's output buffer.
type shardEncoder struct {
	raw []byte
	fw  *flate.Writer
}

// encode sorts one shard by encoded key — so the key column is
// binary-searchable — lays out its columns and compresses them into comp.
func (enc *shardEncoder) encode(si int, es []entry, comp *bytes.Buffer) encodedBlock {
	slices.SortFunc(es, func(a, b entry) int { return bytes.Compare(a.keyEnc[:], b.keyEnc[:]) })

	// Columns: keys | records | offsets | blob. The summaries are encoded
	// straight into the blob, and the offset column, reserved ahead of
	// it, is filled in afterwards.
	raw := enc.raw[:0]
	raw = binary.LittleEndian.AppendUint32(raw, uint32(len(es)))
	for i := range es {
		raw = append(raw, es[i].keyEnc[:]...)
	}
	for i := range es {
		raw = binary.LittleEndian.AppendUint64(raw, es[i].summary.Records)
	}
	offsAt := len(raw)
	raw = append(raw, make([]byte, 4*(len(es)+1))...)
	blobAt := len(raw)
	for i := range es {
		binary.LittleEndian.PutUint32(raw[offsAt+4*i:], uint32(len(raw)-blobAt))
		raw = es[i].summary.AppendBinary(raw)
	}
	binary.LittleEndian.PutUint32(raw[offsAt+4*len(es):], uint32(len(raw)-blobAt))
	enc.raw = raw

	comp.Reset()
	if enc.fw == nil {
		fw, err := flate.NewWriter(comp, flate.DefaultCompression)
		if err != nil {
			return encodedBlock{err: fmt.Errorf("segment: flate: %w", err)}
		}
		enc.fw = fw
	} else {
		enc.fw.Reset(comp)
	}
	if _, err := enc.fw.Write(raw); err != nil {
		return encodedBlock{err: fmt.Errorf("segment: compress shard %d: %w", si, err)}
	}
	if err := enc.fw.Close(); err != nil {
		return encodedBlock{err: fmt.Errorf("segment: compress shard %d: %w", si, err)}
	}

	b := encodedBlock{comp: comp, info: BlockInfo{
		Shard:   si,
		CompLen: uint32(comp.Len()),
		RawLen:  uint32(len(raw)),
		NGroups: uint32(len(es)),
	}}
	for i := range es {
		b.info.NSet[es[i].set-inventory.GSCell]++
	}
	return b
}

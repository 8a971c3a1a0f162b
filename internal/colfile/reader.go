package colfile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/vector"
)

// Meta describes a colfile without its data.
type Meta struct {
	TableName string
	Schema    *catalog.Schema
	Rows      int64
	Blocks    int
	BlockRows int
}

// Reader provides sequential and random block access to a colfile. A Reader
// is not safe for concurrent use: ReadBlock reuses one buffer across calls.
type Reader struct {
	f         *os.File
	meta      Meta
	blockOffs []int64
	footerOff int64
	buf       []byte // the block ReadBlock decodes
}

// Open opens a colfile and reads its trailer, footer and header.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("colfile: %w", err)
	}
	r := &Reader{f: f}
	if err := r.readMeta(); err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// Close releases the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// readAt reads the n bytes at off into r.buf and returns them.
func (r *Reader) readAt(off, n int64) ([]byte, error) {
	if int64(cap(r.buf)) < n {
		r.buf = make([]byte, n)
	}
	_, err := r.f.ReadAt(r.buf[:n], off)
	return r.buf[:n], err
}

// readMeta reads the trailer, the footer it points at, and then the
// header, which must end exactly where the first block (with none, the
// footer) starts. Each is read whole, so every count in it is bounded by
// the bytes it spans, and a corrupt count is an error, not an allocation
// of what it claims.
func (r *Reader) readMeta() error {
	st, err := r.f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	if size < 12 {
		return fmt.Errorf("colfile: truncated file")
	}
	trailer, err := r.readAt(size-12, 12)
	if err != nil {
		return err
	}
	if string(trailer[8:]) != tailMagic {
		return fmt.Errorf("colfile: bad trailer magic")
	}
	r.footerOff = int64(binary.LittleEndian.Uint64(trailer[:8]))
	if r.footerOff < int64(len(headMagic)) || r.footerOff >= size-12 {
		return fmt.Errorf("colfile: bad footer offset %d", r.footerOff)
	}
	footer, err := r.readAt(r.footerOff, size-12-r.footerOff)
	if err != nil {
		return err
	}
	dec := vector.NewDecoder(bytes.NewReader(footer))
	r.meta.Rows = int64(dec.Uvarint())
	r.meta.Blocks = int(dec.Uvarint())
	if dec.Err() != nil {
		return dec.Err()
	}
	if r.meta.Blocks < 0 || r.meta.Blocks > dec.Remaining() {
		return fmt.Errorf("colfile: implausible block count %d", r.meta.Blocks)
	}
	r.blockOffs = make([]int64, r.meta.Blocks)
	dataStart := r.footerOff
	for i := range r.blockOffs {
		off := int64(dec.Uvarint())
		if i == 0 {
			dataStart = off
		} else if off <= r.blockOffs[i-1] || off >= r.footerOff {
			return fmt.Errorf("colfile: block %d at offset %d, out of order", i, off)
		}
		r.blockOffs[i] = off
	}
	if dec.Err() != nil {
		return dec.Err()
	}
	if dataStart < int64(len(headMagic)) || dataStart > r.footerOff {
		return fmt.Errorf("colfile: blocks start at %d", dataStart)
	}
	if err := r.readHeader(dataStart); err != nil {
		return err
	}
	// Every cell takes at least one byte of its block.
	if arity := int64(r.meta.Schema.Arity()); r.meta.Rows < 0 || r.meta.Rows > (r.footerOff-dataStart)/arity {
		return fmt.Errorf("colfile: footer claims %d rows of %d columns in %d bytes of blocks", r.meta.Rows, arity, r.footerOff-dataStart)
	}
	return nil
}

// readHeader decodes the header, the file's first n bytes.
func (r *Reader) readHeader(n int64) error {
	head, err := r.readAt(0, n)
	if err != nil {
		return err
	}
	if string(head[:len(headMagic)]) != headMagic {
		return fmt.Errorf("colfile: bad magic %q", head[:len(headMagic)])
	}
	dec := vector.NewDecoder(bytes.NewReader(head[len(headMagic):]))
	if ver := dec.Uvarint(); ver != version {
		return fmt.Errorf("colfile: unsupported version %d", ver)
	}
	r.meta.TableName = dec.String()
	ncols := int(dec.Uvarint())
	if dec.Err() != nil {
		return dec.Err()
	}
	if ncols <= 0 || ncols > 1<<12 {
		return fmt.Errorf("colfile: implausible column count %d", ncols)
	}
	cols := make([]catalog.Column, ncols)
	for i := range cols {
		cols[i].Name = dec.String()
		cols[i].Type = vector.Type(dec.Uvarint())
		if !cols[i].Type.Valid() {
			return fmt.Errorf("colfile: invalid column type in header")
		}
	}
	r.meta.BlockRows = int(dec.Uvarint())
	if dec.Err() != nil {
		return dec.Err()
	}
	if dec.Remaining() != 0 {
		return fmt.Errorf("colfile: header ends %d bytes before the first block", dec.Remaining())
	}
	r.meta.Schema = catalog.NewSchema(cols...)
	return nil
}

// ReadBlock reads block i into a chunk-shaped set of full column vectors.
// The block spans the bytes up to the next block (or the footer), and its
// parts may not reach past them.
func (r *Reader) ReadBlock(i int) ([]*vector.Vector, error) {
	if i < 0 || i >= len(r.blockOffs) {
		return nil, fmt.Errorf("colfile: block %d out of range %d", i, len(r.blockOffs))
	}
	end := r.footerOff
	if i+1 < len(r.blockOffs) {
		end = r.blockOffs[i+1]
	}
	buf, err := r.readAt(r.blockOffs[i], end-r.blockOffs[i])
	if err != nil {
		return nil, err
	}
	cols := make([]*vector.Vector, r.meta.Schema.Arity())
	for j := range cols {
		if cols[j], buf, err = readBlockPart(buf, r.meta.Schema.Columns[j].Type); err != nil {
			return nil, fmt.Errorf("colfile: block %d column %d: %w", i, j, err)
		}
	}
	return cols, nil
}

// readBlockPart decodes the column part at the head of buf (mode byte,
// payload length, payload, CRC) and returns the bytes after it.
func readBlockPart(buf []byte, want vector.Type) (*vector.Vector, []byte, error) {
	plen, n := binary.Uvarint(buf[min(1, len(buf)):])
	if len(buf) < 1 || n <= 0 || plen > uint64(len(buf)-1-n) || len(buf)-1-n-int(plen) < 4 {
		return nil, nil, fmt.Errorf("truncated part")
	}
	mode, payload, rest := buf[0], buf[1+n:1+n+int(plen)], buf[1+n+int(plen):]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest) {
		return nil, nil, fmt.Errorf("checksum mismatch")
	}
	dec := vector.NewDecoder(bytes.NewReader(payload))
	var v *vector.Vector
	switch mode {
	case modeRaw:
		v = dec.Vector()
		if dec.Err() != nil {
			return nil, nil, dec.Err()
		}
	case modeDict:
		var derr error
		v, derr = decodeDict(dec)
		if derr != nil {
			return nil, nil, derr
		}
	default:
		return nil, nil, fmt.Errorf("unknown block mode %d", mode)
	}
	if v.Type() != want {
		return nil, nil, fmt.Errorf("block column type %v, schema says %v", v.Type(), want)
	}
	return v, rest[4:], nil
}

// ReadTable loads a whole colfile into an in-memory table. Its columns are
// sized once from the footer's row count, and each block's columns are
// appended to them whole.
func ReadTable(path string) (*catalog.Table, error) {
	r, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	cols := r.meta.Schema.NewColumns(int(r.meta.Rows))
	for b := 0; b < r.meta.Blocks; b++ {
		block, err := r.ReadBlock(b)
		if err != nil {
			return nil, err
		}
		n := block[0].Len()
		for _, col := range block {
			if col.Len() != n {
				return nil, fmt.Errorf("colfile: ragged block %d", b)
			}
		}
		if int64(cols[0].Len()+n) > r.meta.Rows {
			return nil, fmt.Errorf("colfile: footer says %d rows, block %d holds more", r.meta.Rows, b)
		}
		for j, col := range block {
			cols[j].AppendRange(col, 0, n)
		}
	}
	t, err := catalog.TableOf(r.meta.TableName, r.meta.Schema, cols)
	if err != nil {
		return nil, err
	}
	if t.NumRows() != r.meta.Rows {
		return nil, fmt.Errorf("colfile: footer says %d rows, read %d", r.meta.Rows, t.NumRows())
	}
	return t, nil
}

// WriteTable writes a whole in-memory table to path.
func WriteTable(path string, t *catalog.Table) error {
	w, err := NewWriter(path, t.Name(), t.Schema())
	if err != nil {
		return err
	}
	chunk := vector.NewViewChunk(t.Schema().Types())
	proj := make([]int, t.Schema().Arity())
	for i := range proj {
		proj[i] = i
	}
	for start := int64(0); start < t.NumRows(); start += vector.ChunkCapacity {
		t.ScanView(chunk, start, vector.ChunkCapacity, proj)
		if err := w.WriteChunk(chunk); err != nil {
			w.f.Close()
			return err
		}
	}
	return w.Close()
}

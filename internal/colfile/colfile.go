// Package colfile implements Riveter's columnar on-disk table format, the
// stand-in for the Parquet ingest the paper uses. A file stores one table:
// a schema header, row-group blocks of dictionary- or delta-encoded column
// vectors (each CRC-checksummed), and a footer with block offsets enabling
// random block access.
//
// Layout:
//
//	magic "RVC1"
//	header  : version, table name, schema, rows per block
//	blocks  : per block, per column: mode byte + payload + crc32
//	footer  : total rows, block count, byte offset of every block
//	trailer : fixed 8-byte footer offset + magic "RVCF"
package colfile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/vector"
)

const (
	headMagic = "RVC1"
	tailMagic = "RVCF"
	version   = 1

	// BlockRows is the number of rows per row-group block.
	BlockRows = 1 << 16

	// modeRaw stores the vector with the shared codec; modeDict stores a
	// per-block string dictionary plus varint codes.
	modeRaw  = 0
	modeDict = 1
)

// Writer streams chunks of a single table into the on-disk format.
type Writer struct {
	w         *bufio.Writer
	f         *os.File
	schema    *catalog.Schema
	name      string
	pending   *vector.Chunk // buffered rows not yet flushed as a block
	rows      int64
	offset    int64
	blockOffs []int64
	closed    bool
}

// NewWriter creates path and returns a Writer for a table with the schema.
func NewWriter(path, tableName string, schema *catalog.Schema) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("colfile: %w", err)
	}
	w := &Writer{
		w:       bufio.NewWriterSize(f, 1<<20),
		f:       f,
		schema:  schema,
		name:    tableName,
		pending: vector.NewChunk(schema.Types()),
	}
	if err := w.writeHeader(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

func (w *Writer) writeHeader() error {
	var buf bytes.Buffer
	buf.WriteString(headMagic)
	enc := vector.NewEncoder(&buf)
	enc.Uvarint(version)
	enc.String(w.name)
	enc.Uvarint(uint64(w.schema.Arity()))
	for _, c := range w.schema.Columns {
		enc.String(c.Name)
		enc.Uvarint(uint64(c.Type))
	}
	enc.Uvarint(BlockRows)
	if enc.Err() != nil {
		return enc.Err()
	}
	n, err := w.w.Write(buf.Bytes())
	w.offset += int64(n)
	return err
}

// WriteChunk appends the chunk's rows to the table.
func (w *Writer) WriteChunk(c *vector.Chunk) error {
	if w.closed {
		return fmt.Errorf("colfile: write after Close")
	}
	for start := 0; start < c.Len(); {
		m := min(c.Len()-start, BlockRows-w.pending.Len())
		for j, v := range w.pending.Cols() {
			v.AppendRange(c.Col(j), start, start+m)
		}
		w.pending.SetLen(w.pending.Len() + m)
		w.rows += int64(m)
		start += m
		if w.pending.Len() >= BlockRows {
			if err := w.flushBlock(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *Writer) flushBlock() error {
	if w.pending.Len() == 0 {
		return nil
	}
	w.blockOffs = append(w.blockOffs, w.offset)
	var buf bytes.Buffer
	for j := 0; j < w.pending.NumCols(); j++ {
		buf.Reset()
		col := w.pending.Col(j)
		mode := byte(modeRaw)
		if col.Type() == vector.TypeString {
			if dict := buildDict(col); dict != nil {
				mode = modeDict
				encodeDict(&buf, col, dict)
			}
		}
		if mode == modeRaw {
			enc := vector.NewEncoder(&buf)
			enc.Vector(col)
			if enc.Err() != nil {
				return enc.Err()
			}
		}
		if err := w.writeBlockPart(mode, buf.Bytes()); err != nil {
			return err
		}
	}
	w.pending.Reset()
	return nil
}

func (w *Writer) writeBlockPart(mode byte, payload []byte) error {
	var head [1 + binary.MaxVarintLen64]byte
	head[0] = mode
	n := 1 + binary.PutUvarint(head[1:], uint64(len(payload)))
	if _, err := w.w.Write(head[:n]); err != nil {
		return err
	}
	if _, err := w.w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	if _, err := w.w.Write(crc[:]); err != nil {
		return err
	}
	w.offset += int64(n) + int64(len(payload)) + 4
	return nil
}

// Close flushes the final partial block, writes the footer and trailer, and
// closes the file.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.flushBlock()
	if err == nil {
		var buf bytes.Buffer
		enc := vector.NewEncoder(&buf)
		enc.Uvarint(uint64(w.rows))
		enc.Uvarint(uint64(len(w.blockOffs)))
		for _, off := range w.blockOffs {
			enc.Uvarint(uint64(off))
		}
		buf.Write(binary.LittleEndian.AppendUint64(nil, uint64(w.offset))) // the footer's offset
		buf.WriteString(tailMagic)
		if _, err = w.w.Write(buf.Bytes()); err == nil {
			err = w.w.Flush()
		}
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// buildDict returns the distinct strings of the column in first-occurrence
// order, or nil when dictionary encoding would not pay off.
func buildDict(col *vector.Vector) []string {
	n := col.Len()
	if n < 16 {
		return nil
	}
	idx := make(map[string]int, 64)
	var dict []string
	for _, s := range col.Strings() {
		if _, ok := idx[s]; !ok {
			idx[s] = len(dict)
			dict = append(dict, s)
			if len(dict) > n/2 {
				return nil // not enough repetition to pay for the dictionary
			}
		}
	}
	return dict
}

func encodeDict(buf *bytes.Buffer, col *vector.Vector, dict []string) {
	enc := vector.NewEncoder(buf)
	enc.Uvarint(uint64(col.Len()))
	enc.Uvarint(uint64(len(dict)))
	idx := make(map[string]int, len(dict))
	for i, s := range dict {
		enc.String(s)
		idx[s] = i
	}
	n := col.Len()
	nullWords := (n + 63) / 64
	nulls := make([]uint64, nullWords)
	for i := 0; i < n; i++ {
		if col.IsNull(i) {
			nulls[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	for _, wo := range nulls {
		enc.Uvarint(wo)
	}
	for i, s := range col.Strings() {
		if col.IsNull(i) {
			enc.Uvarint(0)
			continue
		}
		enc.Uvarint(uint64(idx[s]))
	}
}

func decodeDict(dec *vector.Decoder) (*vector.Vector, error) {
	n := int(dec.Uvarint())
	dn := int(dec.Uvarint())
	if dec.Err() != nil {
		return nil, dec.Err()
	}
	// Every code and every dictionary entry takes at least one byte.
	if rem := dec.Remaining(); n < 0 || dn < 0 || dn > n && n != 0 || n > rem || dn > rem {
		return nil, fmt.Errorf("colfile: bad dict block (n=%d dict=%d)", n, dn)
	}
	dict := make([]string, dn)
	for i := range dict {
		dict[i] = dec.String()
	}
	nullWords := (n + 63) / 64
	nulls := make([]uint64, nullWords)
	for i := range nulls {
		nulls[i] = dec.Uvarint()
	}
	v := vector.New(vector.TypeString, n)
	for i := 0; i < n; i++ {
		code := int(dec.Uvarint())
		if nulls[i>>6]&(1<<(uint(i)&63)) != 0 {
			v.AppendNull()
			continue
		}
		if code >= len(dict) {
			return nil, fmt.Errorf("colfile: dict code %d out of range %d", code, len(dict))
		}
		v.AppendString(dict[code])
	}
	if dec.Err() != nil {
		return nil, dec.Err()
	}
	return v, nil
}

package colfile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
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
// is not safe for concurrent use: ReadBlock reuses an internal buffered
// reader and payload scratch across calls.
type Reader struct {
	f         *os.File
	meta      Meta
	blockOffs []int64
	dataStart int64

	br      *bufio.Reader // reused across ReadBlock calls
	payload []byte        // reused column-part payload scratch
}

// Open opens a colfile and reads its header and footer.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("colfile: %w", err)
	}
	r := &Reader{f: f}
	if err := r.readHeader(); err != nil {
		f.Close()
		return nil, err
	}
	if err := r.readFooter(); err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// Close releases the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// Meta returns the file's metadata.
func (r *Reader) Meta() Meta { return r.meta }

func (r *Reader) readHeader() error {
	br := bufio.NewReader(r.f)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("colfile: read magic: %w", err)
	}
	if string(magic) != headMagic {
		return fmt.Errorf("colfile: bad magic %q", magic)
	}
	dec := vector.NewDecoder(br)
	ver := dec.Uvarint()
	if ver != version {
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
	r.meta.Schema = catalog.NewSchema(cols...)
	// Data starts where the header ended; recompute exactly by re-encoding.
	var buf bytes.Buffer
	buf.WriteString(headMagic)
	enc := vector.NewEncoder(&buf)
	enc.Uvarint(version)
	enc.String(r.meta.TableName)
	enc.Uvarint(uint64(ncols))
	for _, c := range cols {
		enc.String(c.Name)
		enc.Uvarint(uint64(c.Type))
	}
	enc.Uvarint(uint64(r.meta.BlockRows))
	r.dataStart = int64(buf.Len())
	return nil
}

func (r *Reader) readFooter() error {
	st, err := r.f.Stat()
	if err != nil {
		return err
	}
	if st.Size() < 12 {
		return fmt.Errorf("colfile: truncated file")
	}
	var trailer [12]byte
	if _, err := r.f.ReadAt(trailer[:], st.Size()-12); err != nil {
		return err
	}
	if string(trailer[8:]) != tailMagic {
		return fmt.Errorf("colfile: bad trailer magic")
	}
	footerOff := int64(binary.LittleEndian.Uint64(trailer[:8]))
	if footerOff < r.dataStart || footerOff >= st.Size()-12 {
		return fmt.Errorf("colfile: bad footer offset %d", footerOff)
	}
	if _, err := r.f.Seek(footerOff, io.SeekStart); err != nil {
		return err
	}
	dec := vector.NewDecoder(bufio.NewReader(io.LimitReader(r.f, st.Size()-12-footerOff)))
	r.meta.Rows = int64(dec.Uvarint())
	nblocks := int(dec.Uvarint())
	if dec.Err() != nil {
		return dec.Err()
	}
	if nblocks < 0 || nblocks > 1<<24 {
		return fmt.Errorf("colfile: implausible block count %d", nblocks)
	}
	r.blockOffs = make([]int64, nblocks)
	for i := range r.blockOffs {
		r.blockOffs[i] = int64(dec.Uvarint())
	}
	r.meta.Blocks = nblocks
	return dec.Err()
}

// ReadBlock reads block i into a chunk-shaped set of full column vectors.
func (r *Reader) ReadBlock(i int) ([]*vector.Vector, error) {
	if i < 0 || i >= len(r.blockOffs) {
		return nil, fmt.Errorf("colfile: block %d out of range %d", i, len(r.blockOffs))
	}
	if _, err := r.f.Seek(r.blockOffs[i], io.SeekStart); err != nil {
		return nil, err
	}
	if r.br == nil {
		r.br = bufio.NewReaderSize(r.f, 1<<20)
	} else {
		r.br.Reset(r.f)
	}
	cols := make([]*vector.Vector, r.meta.Schema.Arity())
	for j := range cols {
		v, err := r.readBlockPart(r.br, r.meta.Schema.Columns[j].Type)
		if err != nil {
			return nil, fmt.Errorf("colfile: block %d column %d: %w", i, j, err)
		}
		cols[j] = v
	}
	return cols, nil
}

func (r *Reader) readBlockPart(br *bufio.Reader, want vector.Type) (*vector.Vector, error) {
	mode, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	plen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if plen > 1<<33 {
		return nil, fmt.Errorf("implausible payload length %d", plen)
	}
	if uint64(cap(r.payload)) < plen {
		r.payload = make([]byte, plen)
	}
	payload := r.payload[:plen]
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, err
	}
	var crcb [4]byte
	if _, err := io.ReadFull(br, crcb[:]); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(crcb[:]) {
		return nil, fmt.Errorf("checksum mismatch")
	}
	dec := vector.NewDecoder(bytes.NewReader(payload))
	var v *vector.Vector
	switch mode {
	case modeRaw:
		v = dec.Vector()
		if dec.Err() != nil {
			return nil, dec.Err()
		}
	case modeDict:
		var derr error
		v, derr = decodeDict(dec)
		if derr != nil {
			return nil, derr
		}
	default:
		return nil, fmt.Errorf("unknown block mode %d", mode)
	}
	if v.Type() != want {
		return nil, fmt.Errorf("block column type %v, schema says %v", v.Type(), want)
	}
	return v, nil
}

// ReadTable loads a whole colfile into an in-memory table.
func ReadTable(path string) (*catalog.Table, error) {
	r, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	t := catalog.NewTable(r.meta.TableName, r.meta.Schema)
	chunk := vector.NewChunk(r.meta.Schema.Types())
	for b := 0; b < r.meta.Blocks; b++ {
		cols, err := r.ReadBlock(b)
		if err != nil {
			return nil, err
		}
		n := cols[0].Len()
		for _, col := range cols[1:] {
			if col.Len() != n {
				return nil, fmt.Errorf("colfile: ragged block %d", b)
			}
		}
		for i := 0; i < n; i++ {
			if chunk.Full() {
				if err := t.AppendChunk(chunk); err != nil {
					return nil, err
				}
				chunk.Reset()
			}
			for j := range cols {
				chunk.Col(j).AppendFrom(cols[j], i)
			}
			chunk.SetLen(chunk.Len() + 1)
		}
	}
	if chunk.Len() > 0 {
		if err := t.AppendChunk(chunk); err != nil {
			return nil, err
		}
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

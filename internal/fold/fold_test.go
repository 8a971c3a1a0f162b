package fold

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/engine"
	"github.com/riveterdb/riveter/internal/obs"
	"github.com/riveterdb/riveter/internal/vector"
)

// fakeSource is a deterministic base table: morsel i holds rowsPer rows
// whose values encode (morsel, row), so any misrouted read is visible in
// the data itself. It counts base reads to prove sharing happened.
type fakeSource struct {
	morsels int64
	rowsPer int
	reads   atomic.Int64
}

func (f *fakeSource) MorselCount() int64          { return f.morsels }
func (f *fakeSource) OutTypes() []vector.Type     { return []vector.Type{vector.TypeInt64} }
func (f *fakeSource) MorselBytes(idx int64) int64 { return idx + 1 }

func (f *fakeSource) ReadMorsel(idx int64, dst *vector.Chunk) (int, error) {
	f.reads.Add(1)
	dst.Reset()
	col := dst.Col(0)
	for r := 0; r < f.rowsPer; r++ {
		col.AppendInt64(idx*1000 + int64(r))
	}
	dst.SetLen(f.rowsPer)
	return f.rowsPer, nil
}

func checkMorsel(t *testing.T, got *vector.Chunk, idx int64, rowsPer int) {
	t.Helper()
	if got.Len() != rowsPer {
		t.Fatalf("morsel %d: got %d rows, want %d", idx, got.Len(), rowsPer)
	}
	vals := got.Col(0).Int64s()
	for r := 0; r < rowsPer; r++ {
		if vals[r] != idx*1000+int64(r) {
			t.Fatalf("morsel %d row %d: got %d, want %d", idx, r, vals[r], idx*1000+int64(r))
		}
	}
}

// TestHubFillThenHit: the first rider to ask for a morsel fills the shared
// slot; the second is served from it without touching the base table.
func TestHubFillThenHit(t *testing.T) {
	base := &fakeSource{morsels: 8, rowsPer: 4}
	m := NewManager(obs.NewRegistry(), nil)
	r1 := m.Share("t", []int{0}, base)
	r2 := m.Share("t", []int{0}, base)

	dst := vector.NewChunk(base.OutTypes())
	for idx := int64(0); idx < 8; idx++ {
		if _, err := r1.ReadMorsel(idx, dst); err != nil {
			t.Fatal(err)
		}
		checkMorsel(t, dst, idx, 4)
		if got, want := r1.MorselBytes(idx), base.MorselBytes(idx); got != want {
			t.Fatalf("morsel %d: rider counts %d bytes, base %d", idx, got, want)
		}
	}
	if got := base.reads.Load(); got != 8 {
		t.Fatalf("after first pass: %d base reads, want 8", got)
	}
	for idx := int64(0); idx < 8; idx++ {
		if _, err := r2.ReadMorsel(idx, dst); err != nil {
			t.Fatal(err)
		}
		checkMorsel(t, dst, idx, 4)
	}
	if got := base.reads.Load(); got != 8 {
		t.Fatalf("second rider hit the base table: %d reads, want 8", got)
	}
	if len(m.hubs) != 1 {
		t.Fatalf("hubs = %d, want 1", len(m.hubs))
	}
}

// TestHubDirectBehindWindow: a rider more than WindowMorsels behind the
// stream head reads the base table directly and still gets correct rows.
func TestHubDirectBehindWindow(t *testing.T) {
	base := &fakeSource{morsels: WindowMorsels * 3, rowsPer: 2}
	m := NewManager(nil, nil)
	fast := m.Share("t", []int{0}, base)
	slow := m.Share("t", []int{0}, base)

	dst := vector.NewChunk(base.OutTypes())
	for idx := int64(0); idx < WindowMorsels*3; idx++ {
		if _, err := fast.ReadMorsel(idx, dst); err != nil {
			t.Fatal(err)
		}
	}
	// Morsel 0's ring slot now caches morsel 2*WindowMorsels; the laggard
	// must get morsel 0's rows anyway, via a direct read.
	before := base.reads.Load()
	if _, err := slow.ReadMorsel(0, dst); err != nil {
		t.Fatal(err)
	}
	checkMorsel(t, dst, 0, 2)
	if base.reads.Load() != before+1 {
		t.Fatalf("laggard read was not direct: %d base reads, want %d", base.reads.Load(), before+1)
	}
}

// TestHubDistinctColumnSets: different projections get different hubs.
func TestHubDistinctColumnSets(t *testing.T) {
	m := NewManager(nil, nil)
	m.Share("t", []int{0}, &fakeSource{morsels: 1, rowsPer: 1})
	m.Share("t", []int{0, 1}, &fakeSource{morsels: 1, rowsPer: 1})
	m.Share("u", []int{0}, &fakeSource{morsels: 1, rowsPer: 1})
	if len(m.hubs) != 3 {
		t.Fatalf("hubs = %d, want 3", len(m.hubs))
	}
}

// TestHubConcurrentRiders hammers one hub from many goroutines at skewed
// paces under -race: every rider must see exactly its own morsel's rows.
func TestHubConcurrentRiders(t *testing.T) {
	base := &fakeSource{morsels: 200, rowsPer: 8}
	m := NewManager(obs.NewRegistry(), nil)
	const riders = 8
	var wg sync.WaitGroup
	for g := 0; g < riders; g++ {
		wg.Add(1)
		r := m.Share("t", []int{0}, base)
		go func(g int) {
			defer wg.Done()
			dst := vector.NewChunk(base.OutTypes())
			// Stagger stride per rider so windows interleave: some riders
			// race ahead, others trail into direct-read territory.
			for idx := int64(g % 3); idx < 200; idx += int64(1 + g%3) {
				if _, err := r.ReadMorsel(idx, dst); err != nil {
					t.Error(err)
					return
				}
				checkMorsel(t, dst, idx, 8)
			}
		}(g)
	}
	wg.Wait()
	if got := base.reads.Load(); got > 200*riders {
		t.Fatalf("more base reads (%d) than an unshared scan would do", got)
	}
}

// TestHubSingleRiderFastPath: with at most one live execution, reads
// bypass the shared window entirely; once a second execution is live the
// same hub switches to the shared protocol.
func TestHubSingleRiderFastPath(t *testing.T) {
	base := &fakeSource{morsels: 4, rowsPer: 2}
	var live atomic.Int64
	m := NewManager(obs.NewRegistry(), &live)
	r := m.Share("t", []int{0}, base)
	dst := vector.NewChunk(base.OutTypes())

	live.Store(1)
	for idx := int64(0); idx < 4; idx++ {
		if _, err := r.ReadMorsel(idx, dst); err != nil {
			t.Fatal(err)
		}
		checkMorsel(t, dst, idx, 2)
	}
	// A lone rider re-reading a morsel must hit the base again: nothing
	// was cached on its behalf.
	if _, err := r.ReadMorsel(0, dst); err != nil {
		t.Fatal(err)
	}
	if got := base.reads.Load(); got != 5 {
		t.Fatalf("lone rider cached morsels: %d base reads, want 5", got)
	}

	live.Store(2)
	if _, err := r.ReadMorsel(1, dst); err != nil { // fill
		t.Fatal(err)
	}
	checkMorsel(t, dst, 1, 2)
	if _, err := r.ReadMorsel(1, dst); err != nil { // hit
		t.Fatal(err)
	}
	checkMorsel(t, dst, 1, 2)
	if got := base.reads.Load(); got != 6 {
		t.Fatalf("shared mode did not cache: %d base reads, want 6", got)
	}
}

// tableBytes encodes a view of every column of tbl.
func tableBytes(t *testing.T, tbl *catalog.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := vector.NewEncoder(&buf)
	for j, c := range tbl.Schema().Columns {
		view := vector.NewChunk([]vector.Type{c.Type})
		tbl.ScanView(view, 0, tbl.NumRows(), []int{j})
		enc.Vector(view.Col(0))
	}
	if err := enc.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkTableMorsel compares c with morsel idx of tbl, row by row.
func checkTableMorsel(t *testing.T, c *vector.Chunk, tbl *catalog.Table, idx int64) {
	t.Helper()
	lo := idx * vector.ChunkCapacity
	want := min(tbl.NumRows()-lo, vector.ChunkCapacity)
	if int64(c.Len()) != want {
		t.Fatalf("morsel %d: %d rows, want %d", idx, c.Len(), want)
	}
	for r := 0; r < c.Len(); r++ {
		for j := 0; j < c.NumCols(); j++ {
			if got, w := c.Col(j).Value(r), tbl.Value(lo+int64(r), j); !got.Equal(w) || got.Null != w.Null {
				t.Fatalf("morsel %d row %d col %d: %v, want %v", idx, r, j, got, w)
			}
		}
	}
}

// TestHubHitIntoDirectReadView: a chunk that held a direct read — a view
// of the base table — takes a hub hit and shows the hit's morsel; reused
// afterwards as an ordinary chunk, it writes storage of its own, so the
// table and the hub's slot are what they were.
func TestHubHitIntoDirectReadView(t *testing.T) {
	tbl := catalog.NewTable("t", catalog.NewSchema(
		catalog.Col("k", vector.TypeInt64),
		catalog.Col("s", vector.TypeString),
	))
	rows := 3*vector.ChunkCapacity + 5 // the last morsel is partial
	for i := 0; i < rows; i++ {
		s := vector.NewString(string(rune('a' + i%26)))
		if i%10 == 3 {
			s = vector.NewNull(vector.TypeString)
		}
		if err := tbl.AppendRow(vector.NewInt64(int64(i)), s); err != nil {
			t.Fatal(err)
		}
	}
	before := tableBytes(t, tbl)
	var live atomic.Int64
	m := NewManager(obs.NewRegistry(), &live)
	base := engine.NewTableSource(tbl, []int{0, 1})
	r1, r2 := m.Share("t", []int{0, 1}, base), m.Share("t", []int{0, 1}, base)
	dst := vector.NewViewChunk(base.OutTypes())
	other := vector.NewViewChunk(base.OutTypes())

	live.Store(1)
	if _, err := r2.ReadMorsel(0, dst); err != nil { // direct
		t.Fatal(err)
	}
	checkTableMorsel(t, dst, tbl, 0)
	live.Store(2)
	for _, idx := range []int64{2, 3} {
		if _, err := r1.ReadMorsel(idx, other); err != nil { // fill
			t.Fatal(err)
		}
		if _, err := r2.ReadMorsel(idx, dst); err != nil { // hit
			t.Fatal(err)
		}
		checkTableMorsel(t, dst, tbl, idx)
	}

	dst.Reset()
	for i := 0; i < 100; i++ {
		dst.AppendRowValues(vector.NewInt64(-1), vector.NewNull(vector.TypeString))
	}
	if _, err := r1.ReadMorsel(3, other); err != nil { // hit: the slot is intact
		t.Fatal(err)
	}
	checkTableMorsel(t, other, tbl, 3)
	if !bytes.Equal(tableBytes(t, tbl), before) {
		t.Fatal("a rider's chunk wrote into the base table")
	}
}

// TestGaugeAddConcurrent is the regression test for Gauge.Add: concurrent
// deltas from hub fan-out goroutines must not lose updates the way a
// Set(Value()+delta) read-modify-write does.
func TestGaugeAddConcurrent(t *testing.T) {
	g := obs.NewRegistry().Gauge("test.gauge")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
				g.Add(-1)
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 8*1000 {
		t.Fatalf("Gauge.Add lost updates: %d, want %d", got, 8*1000)
	}
}

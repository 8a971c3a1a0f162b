// Package fold is Riveter's scan-sharing half of shared execution: scan
// hubs that run one morsel stream per (table, column-set) group and fan
// chunks out to every subscribed pipeline. (The other half, whole-plan
// folding at admission, lives in internal/server.) Sharing is live only —
// hubs share reads between executions running at the same time, and
// nothing outlives them across sessions.
//
// The hub is demand-driven rather than push-based, which is what makes it
// suspension-safe. A hub keeps a ring of recently materialized morsels (the
// shared window); riders read through ScanHub.Read, which serves three
// cases: the requested morsel is in the window (hit — a view of the slot),
// the rider is the first to need a newer morsel (fill — read it from the
// base table into the window, advancing it for everyone), or the rider is
// behind the window (direct — a private base-table read that touches no
// shared state). Slow riders therefore never stall the stream: the window
// advances with the fastest rider, laggards privatize the morsels they
// missed, and no rider ever blocks another beyond a slot lookup. Nothing is
// copied: a slot holds the base source's view of its morsel, and a hit
// points the rider's chunk at the same rows.
//
// Because Read(idx) returns exactly the rows of morsel idx no matter which
// case serves it, a rider is just another random-access Source: the
// engine's morsel cursors, checkpoint format, and result bytes are
// identical with and without folding. Suspension needs no new state — a
// rider detaches by simply stopping (its cursor is already in the
// checkpoint), the hub keeps streaming for survivors, and a resumed rider
// either rejoins (below-window reads go direct until it converges) or runs
// the same plan with a private scan.
package fold

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/riveterdb/riveter/internal/engine"
	"github.com/riveterdb/riveter/internal/obs"
	"github.com/riveterdb/riveter/internal/vector"
)

// WindowMorsels is the hub ring size: how many recent morsels the shared
// window retains. Riders within this distance of the stream head share
// every read; riders further behind privatize the difference. 64 morsels
// of lookback absorbs ordinary worker-scheduling jitter between sessions
// while bounding a hub's memory to ~64 chunks per column set.
const WindowMorsels = 64

// slot is one ring entry: the cached rows of morsel idx.
type slot struct {
	mu    sync.Mutex
	idx   int64 // morsel index currently cached; -1 = empty
	n     int
	chunk *vector.Chunk
}

// ScanHub is one shared morsel stream over a (table, column-set) group.
// Safe for concurrent Read from any number of riders.
type ScanHub struct {
	base  engine.Source
	types []vector.Type
	slots []slot
	live  *atomic.Int64

	hits    *obs.Counter
	fills   *obs.Counter
	directs *obs.Counter
}

func newScanHub(base engine.Source, m *Manager) *ScanHub {
	h := &ScanHub{
		base:    base,
		types:   base.OutTypes(),
		slots:   make([]slot, WindowMorsels),
		live:    m.live,
		hits:    m.hits,
		fills:   m.fills,
		directs: m.directs,
	}
	for i := range h.slots {
		h.slots[i].idx = -1
	}
	return h
}

// Read fills dst with morsel idx, serving from the shared window when it
// can and reading the base table otherwise.
func (h *ScanHub) Read(idx int64, dst *vector.Chunk) (int, error) {
	// Single-rider fast path: while at most one execution is live there is
	// nobody to share with, so maintaining the window — a slot lock and a
	// fresh slot chunk per morsel — is pure tax. Private reads are always correct
	// (they return the same bytes as a hit or fill), so this can flip
	// per-read as executions come and go.
	if h.live != nil && h.live.Load() <= 1 {
		h.directs.Inc()
		return h.base.ReadMorsel(idx, dst)
	}
	s := &h.slots[idx%int64(len(h.slots))]
	s.mu.Lock()
	switch {
	case s.idx == idx:
		// Hit: another rider already materialized this morsel.
		dst.View(s.chunk)
		n := s.n
		s.mu.Unlock()
		h.hits.Inc()
		return n, nil
	case idx > s.idx:
		// Fill: advance the window. The read lands in a fresh slot chunk
		// so that riders still holding a view of the previous one keep
		// their rows whatever the base source does with its destination.
		c := vector.NewViewChunk(h.types)
		n, err := h.base.ReadMorsel(idx, c)
		if err != nil {
			s.idx, s.chunk = -1, nil
			s.mu.Unlock()
			return 0, err
		}
		s.idx, s.n, s.chunk = idx, n, c
		dst.View(c)
		s.mu.Unlock()
		h.fills.Inc()
		return n, nil
	default:
		// Behind the window: the stream has moved on. Privatized read —
		// straight from the base table, no shared state touched, so the
		// laggard never drags the window backwards for everyone else.
		s.mu.Unlock()
		h.directs.Inc()
		return h.base.ReadMorsel(idx, dst)
	}
}

// rider adapts a hub to the engine's Source interface for one pipeline.
type rider struct {
	hub *ScanHub
}

// MorselCount implements engine.Source.
func (r *rider) MorselCount() int64 { return r.hub.base.MorselCount() }

// ReadMorsel implements engine.Source.
func (r *rider) ReadMorsel(idx int64, dst *vector.Chunk) (int, error) {
	return r.hub.Read(idx, dst)
}

// OutTypes implements engine.Source.
func (r *rider) OutTypes() []vector.Type { return r.hub.types }

// MorselBytes implements engine.Source from the hub's base source: a
// morsel counts the same bytes whoever reads it.
func (r *rider) MorselBytes(idx int64) int64 { return r.hub.base.MorselBytes(idx) }

// Manager owns the hubs of one database: one per (table, column-set) seen.
// It implements engine.ScanSharer, so plugging a Manager into
// CompileOptions.ScanShare folds every base-table scan the compiler emits.
// Hubs live for the manager's (the database's) lifetime — tables are
// immutable after load, so a hub's window never goes stale.
type Manager struct {
	mu   sync.Mutex
	hubs map[string]*ScanHub
	live *atomic.Int64

	hubsGauge *obs.Gauge
	attached  *obs.Counter
	hits      *obs.Counter
	fills     *obs.Counter
	directs   *obs.Counter
}

// NewManager builds a hub registry recording fold.* metrics into r (nil
// ok). live is the database's in-flight execution gauge (engine
// Options.Live); hubs consult it for the single-rider fast path. A nil
// live disables the fast path — every read takes the shared protocol.
func NewManager(r *obs.Registry, live *atomic.Int64) *Manager {
	m := &Manager{hubs: map[string]*ScanHub{}, live: live}
	if r != nil {
		m.hubsGauge = r.Gauge(obs.MetricFoldHubs)
		m.attached = r.Counter(obs.MetricFoldAttached)
		m.hits = r.Counter(obs.MetricFoldHits)
		m.fills = r.Counter(obs.MetricFoldFills)
		m.directs = r.Counter(obs.MetricFoldDirectReads)
	}
	return m
}

// hubKey renders the (table, column-set) group key.
func hubKey(table string, proj []int) string {
	return fmt.Sprintf("%s:%v", table, proj)
}

// Share implements engine.ScanSharer: it returns a rider on the group's
// hub, creating the hub around src on first use.
func (m *Manager) Share(table string, proj []int, src engine.Source) engine.Source {
	key := hubKey(table, proj)
	m.mu.Lock()
	h, ok := m.hubs[key]
	if !ok {
		h = newScanHub(src, m)
		m.hubs[key] = h
		m.hubsGauge.Set(int64(len(m.hubs)))
	}
	m.mu.Unlock()
	m.attached.Inc()
	return &rider{hub: h}
}

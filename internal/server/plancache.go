package server

import (
	"container/list"
	"strconv"
	"strings"
	"sync"

	"github.com/riveterdb/riveter"
	"github.com/riveterdb/riveter/internal/obs"
)

// DefaultPlanCacheSize is the prepared-plan LRU's default entry bound.
const DefaultPlanCacheSize = 64

// planCache is a small LRU of prepared plans keyed by normalized statement
// text, or by tpchPlanKey for a TPC-H query. riveter.Query is immutable after Prepare and holds its compiled
// physical plan, which every execution runs on an executor of its own, so
// one cached plan can back any number of concurrent sessions; a hit skips
// the parse→bind→plan→lower pipeline entirely and — because the cached
// plan is pointer-identical — gives repeated statements identical
// fingerprints for fold grouping without recomputing anything.
type planCache struct {
	mu      sync.Mutex
	max     int
	order   *list.List
	entries map[string]*list.Element

	hit  *obs.Counter
	miss *obs.Counter
}

type planEntry struct {
	key string
	q   *riveter.Query
}

func newPlanCache(max int, r *obs.Registry) *planCache {
	if max <= 0 {
		max = DefaultPlanCacheSize
	}
	c := &planCache{
		max:     max,
		order:   list.New(),
		entries: map[string]*list.Element{},
	}
	if r != nil {
		c.hit = r.Counter(obs.MetricPlanCacheHit)
		c.miss = r.Counter(obs.MetricPlanCacheMiss)
	}
	return c
}

// normalizeSQL collapses whitespace runs and trims trailing semicolons so
// trivially reformatted statements share one cache entry. It deliberately
// keeps case: identifiers and literals are case-significant in general,
// and a missed fold is cheaper than a wrong one.
func normalizeSQL(sql string) string {
	return strings.Join(strings.Fields(strings.TrimRight(strings.TrimSpace(sql), ";")), " ")
}

// tpchPlanKey is the cache key of TPC-H query id. Its leading space keeps
// it apart from every statement key: normalizeSQL trims leading space.
func tpchPlanKey(id int) string { return " tpch " + strconv.Itoa(id) }

// get returns the cached plan for a statement, or nil.
func (c *planCache) get(key string) *riveter.Query {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.miss.Inc()
		return nil
	}
	c.order.MoveToFront(el)
	c.hit.Inc()
	return el.Value.(*planEntry).q
}

// put inserts a freshly prepared plan, evicting the LRU tail past the cap.
func (c *planCache) put(key string, q *riveter.Query) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&planEntry{key: key, q: q})
	for c.order.Len() > c.max {
		tail := c.order.Back()
		c.order.Remove(tail)
		delete(c.entries, tail.Value.(*planEntry).key)
	}
}

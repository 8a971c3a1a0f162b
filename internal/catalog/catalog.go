package catalog

import (
	"fmt"
	"sort"
	"sync"
)

// Catalog maps table names to tables. It is safe for concurrent use; the
// engine reads it from many worker goroutines.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Create registers a new empty table and returns it. It fails if the name is
// already taken.
func (c *Catalog) Create(name string, schema *Schema) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; ok {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	t := NewTable(name, schema)
	c.tables[name] = t
	return t, nil
}

// Add registers an existing table (e.g. one loaded from disk).
func (c *Catalog) Add(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[t.Name()]; ok {
		return fmt.Errorf("catalog: table %q already exists", t.Name())
	}
	c.tables[t.Name()] = t
	return nil
}

// Table returns the named table.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: table %q does not exist", name)
	}
	return t, nil
}

// Names returns all table names in sorted order.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// MemBytes estimates the resident size of all tables.
func (c *Catalog) MemBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var b int64
	for _, t := range c.tables {
		b += t.MemBytes()
	}
	return b
}

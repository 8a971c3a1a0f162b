// Package catalog defines relational schemas, in-memory columnar tables, and
// the database catalog that maps table names to storage. It is the engine's
// source of base data. It keeps no statistics: the planner's cardinality
// estimates (plan.EstimateRows) read only table row counts.
package catalog

import (
	"fmt"

	"github.com/riveterdb/riveter/internal/vector"
)

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Type vector.Type
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from alternating name/type pairs.
func NewSchema(cols ...Column) *Schema {
	return &Schema{Columns: cols}
}

// Col is a convenience constructor for Column.
func Col(name string, t vector.Type) Column { return Column{Name: name, Type: t} }

// Arity returns the number of columns.
func (s *Schema) Arity() int { return len(s.Columns) }

// IndexOf returns the position of the named column, or -1.
func (s *Schema) IndexOf(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Types returns the column types in order.
func (s *Schema) Types() []vector.Type {
	ts := make([]vector.Type, len(s.Columns))
	for i, c := range s.Columns {
		ts[i] = c.Type
	}
	return ts
}

// NewColumns returns one empty vector per column, each with room for n
// rows: the columns a loader fills and hands to TableOf.
func (s *Schema) NewColumns(n int) []*vector.Vector {
	cols := make([]*vector.Vector, len(s.Columns))
	for i, c := range s.Columns {
		cols[i] = vector.New(c.Type, n)
	}
	return cols
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	ns := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		ns[i] = c.Name
	}
	return ns
}

// Project returns a new schema with only the given column positions.
func (s *Schema) Project(idx []int) *Schema {
	out := &Schema{Columns: make([]Column, len(idx))}
	for i, j := range idx {
		out.Columns[i] = s.Columns[j]
	}
	return out
}

// String renders the schema for debugging.
func (s *Schema) String() string {
	out := "("
	for i, c := range s.Columns {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s %s", c.Name, c.Type)
	}
	return out + ")"
}

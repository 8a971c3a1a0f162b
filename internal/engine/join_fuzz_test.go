package engine

import (
	"slices"
	"testing"

	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/vector"
)

// joinGen turns fuzz bytes into a join case. Each choice consumes one byte;
// exhausted input reads as zeros, so any input yields a case.
type joinGen struct {
	data []byte
}

func (g *joinGen) next() int {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return int(b)
}

// rows draws up to 47 rows. Keys fall in [0, 4), so they repeat; about one
// value in nine of each column is NULL.
func (g *joinGen) rows() []joinRow {
	rows := make([]joinRow, g.next()%48)
	for i := range rows {
		k, v, s := g.next(), g.next(), g.next()
		r := joinRow{
			k: vector.NewInt64(int64(k % 4)),
			v: vector.NewFloat64(float64(v % 7)),
			s: vector.NewString([]string{"", "a", "b"}[s%3]),
		}
		if k%9 == 8 {
			r.k = vector.NewNull(vector.TypeInt64)
		}
		if v%9 == 8 {
			r.v = vector.NewNull(vector.TypeFloat64)
		}
		if s%9 == 8 {
			r.s = vector.NewNull(vector.TypeString)
		}
		rows[i] = r
	}
	return rows
}

// FuzzHashJoinMatchesNestedLoop builds two small tables, a join type, an
// optional residual predicate and the join keys from the input, and holds
// the hash join's output, every column of every row, to the nested-loop
// oracle. The keys are chosen last, so an input that ends before them
// joins on l_k = r_k.
func FuzzHashJoinMatchesNestedLoop(f *testing.F) {
	// The first byte picks the join type. Cross is fifth, after the four
	// probe-side types, as the committed seeds of the first five expect.
	types := slices.Insert(slices.Clone(oracleJoinTypes), 4, plan.CrossJoin)
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &joinGen{data: data}
		jc := joinCase{jt: types[g.next()%len(types)]}
		jc.residual = g.next() % numJoinResiduals
		workers := 1 + g.next()%2
		l, r := g.rows(), g.rows()
		jc.keys = g.next() % numJoinKeyings
		if jc.jt == plan.CrossJoin {
			jc.keys, jc.residual = keysNone, 0
		}
		checkJoinAgainstOracle(t, l, r, jc, workers, -1)
	})
}

package sql

import (
	"context"
	"testing"
	"time"

	"github.com/riveterdb/riveter/internal/engine"
	"github.com/riveterdb/riveter/internal/plan"
)

// FuzzCompileSQL feeds raw statements to the front end, as POST /query
// does with a body that is not JSON. A statement either fails to compile
// with an error, or it lowers and runs at two workers on testCatalog under
// a two-second deadline; nothing may panic. A plan with more than one join
// is lowered but not run: over the 1,000-row emp table, two joins can
// materialize a billion rows. The seeds (testdata/fuzz/FuzzCompileSQL) are
// the statements of sql_test.go.
func FuzzCompileSQL(f *testing.F) {
	cat := testCatalog(f)
	f.Fuzz(func(t *testing.T, query string) {
		node, err := Compile(query, cat)
		if err != nil {
			return
		}
		pp, err := engine.CompileWith(node, cat, engine.CompileOptions{})
		if err != nil {
			return
		}
		joins := 0
		plan.Walk(node, func(n plan.Node) {
			if _, ok := n.(*plan.Join); ok {
				joins++
			}
		})
		if joins > 1 {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_, _ = engine.NewExecutor(pp, engine.Options{Workers: 2}).Run(ctx)
	})
}

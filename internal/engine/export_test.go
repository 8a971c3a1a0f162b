package engine

// The plan matrix and its catalog, for tests in package engine_test — the
// ones that need internal/fold, which imports this package.
var (
	EquivPlans = equivPlans
	TestDB     = testDB
)

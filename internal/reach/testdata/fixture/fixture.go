// Package fixture is the root package of the module the reachability
// check's own test runs on.
package fixture

import "example.com/fixture/inner"

// Thing re-exports inner.Thing, so its exported methods are roots.
type Thing = inner.Thing

// Run is the root package's API.
func Run() string { return inner.Use() }

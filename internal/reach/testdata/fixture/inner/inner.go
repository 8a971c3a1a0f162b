// Package inner holds one case of each rule of the reachability check.
package inner

import "fmt"

// Thing is made by users of the root package, which aliases it.
type Thing struct{ n int }

// Count is kept: the root package re-exports Thing by alias.
func (t *Thing) Count() int { return t.n }

// reset is reported: no live code names it and no interface has its name.
func (t *Thing) reset() { t.n = 0 }

type node interface{ kind() string }

// leaf is made by Use; its kind method is kept by the node interface.
type leaf struct{}

func (leaf) kind() string { return "leaf" }

// orphan is reported: it is named only in a type switch, never made.
type orphan struct{}

func (orphan) kind() string { return "orphan" }

// label is kept only by fmt.Stringer.
type label struct{}

func (label) String() string { return "label" }

// Use is reached from the root package.
func Use() string {
	var n node = leaf{}
	switch v := n.(type) {
	case orphan:
		return v.kind()
	}
	revived()
	return fmt.Sprint(label{}) + n.kind()
}

// Tool is reached from a main package only.
func Tool() { fmt.Println(Use()) }

// deadCaller is reported, and so is deadCallee, which only it calls.
func deadCaller() { deadCallee() }

func deadCallee() {}

// kept is allowlisted; keptHelper is reached through it.
func kept() { keptHelper() }

func keptHelper() {}

// revived is allowlisted, but Use calls it: its entry is stale.
func revived() {}

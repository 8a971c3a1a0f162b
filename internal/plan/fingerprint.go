package plan

import "hash/fnv"

// Fingerprint returns a stable 64-bit hash of the full plan tree. A
// checkpoint records the fingerprint of the plan it was taken from; resume
// refuses to load state into a plan with a different fingerprint (the paper
// assumes "query plans remain the same when suspending and resuming").
func Fingerprint(n Node) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(Tree(n)))
	return h.Sum64()
}

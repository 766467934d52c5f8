// Package satlib is the graded solver-regression harness: a committed
// mini-SATLIB corpus (uniform-random 3-SAT in the classic uf20/uf50/uuf50
// classes, plus DIMACS snapshots of real BEER uniqueness-loop formulas
// recorded through the Dimacs backend) and a grading policy
// (grading.json) that fixes, per difficulty grade, the conflict budget a
// conforming solver gets and the fraction of instances it must settle.
//
// The corpus is generated deterministically by gen/main.go (go run
// ./internal/sat/satlib/gen) and committed, so every CI run grades the
// solver against byte-identical formulas. Thresholds only ever ratchet:
// a budget may be lowered or a pass fraction raised when the engine
// improves, never loosened to paper over a regression.
package satlib

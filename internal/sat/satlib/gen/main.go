// Command gen (re)generates the committed satlib corpus deterministically:
//
//	go run ./internal/sat/satlib/gen
//
// Three families, all from fixed PCG seeds so the output is byte-stable:
//
//   - uf20/uf50: uniform-random 3-SAT at the classic SATLIB
//     clause-to-variable ratio (~4.36), keeping the first instances the
//     reference engine classifies SATISFIABLE. uf20 answers are
//     additionally brute-force verified over all 2^20 assignments, so at
//     least one grade's ground truth is independent of any SAT solver.
//   - uuf50: same construction, keeping UNSAT instances.
//   - beer: real formulas from this repo's own pipeline, recorded through
//     the Dimacs backend during a BEER uniqueness run — the
//     determine-step CNF (satisfiable: the planted code is a model) and
//     the final CNF after the blocking-clause loop exhausted the space
//     (unsatisfiable: that is the uniqueness proof itself).
//
// Every file carries a "c expect SAT|UNSAT" stamp that satlib.Load reads
// back as ground truth.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/sat"
)

func main() {
	outDir := "internal/sat/satlib/corpus"
	if len(os.Args) > 1 {
		outDir = os.Args[1]
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		log.Fatal(err)
	}

	genRandom3SAT(outDir, "uf20", 20, 91, 6, true, 1)
	genRandom3SAT(outDir, "uf50", 50, 218, 4, true, 2)
	genRandom3SAT(outDir, "uuf50", 50, 218, 4, false, 3)
	genBeer(outDir)
}

// writeInstance stamps and writes one corpus file.
func writeInstance(outDir, name string, cnf *sat.CNF, expectSAT bool) {
	expect := "UNSAT"
	if expectSAT {
		expect = "SAT"
	}
	path := filepath.Join(outDir, name+".cnf")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(f, "c expect %s\nc generated by internal/sat/satlib/gen — do not edit\n", expect)
	if err := cnf.Write(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d vars, %d clauses, expect %s)\n", path, cnf.Vars, len(cnf.Clauses), expect)
}

// genRandom3SAT emits `want` instances of n-variable random 3-SAT with the
// requested satisfiability, classified by the reference engine (and
// brute-verified when bruteforceable).
func genRandom3SAT(outDir, prefix string, nVars, nClauses, want int, wantSAT bool, seed uint64) {
	rng := rand.New(rand.NewPCG(0xbee2, seed))
	got := 0
	for attempt := 0; got < want; attempt++ {
		if attempt > 10000 {
			log.Fatalf("%s: no %d instances in 10000 attempts", prefix, want)
		}
		cnf := random3SAT(rng, nVars, nClauses)
		s := sat.New()
		cnf.Feed(s)
		s.SetMaxConflicts(1 << 22)
		isSat, err := s.Solve()
		if err != nil {
			continue // budget blown: too hard for the corpus, skip
		}
		if nVars <= 20 {
			if brute := bruteSat(cnf); brute != isSat {
				log.Fatalf("%s: engine says %v, brute force says %v", prefix, isSat, brute)
			}
		}
		if isSat != wantSAT {
			continue
		}
		got++
		writeInstance(outDir, fmt.Sprintf("%s-%02d", prefix, got), cnf, wantSAT)
	}
}

// random3SAT draws a uniform-random 3-SAT formula: three distinct
// variables per clause, independent random polarities.
func random3SAT(rng *rand.Rand, nVars, nClauses int) *sat.CNF {
	cnf := &sat.CNF{Vars: nVars}
	for i := 0; i < nClauses; i++ {
		v := rng.Perm(nVars)[:3]
		cl := make([]sat.Lit, 3)
		for j, vv := range v {
			if rng.Uint64()&1 == 0 {
				cl[j] = sat.PosLit(vv)
			} else {
				cl[j] = sat.NegLit(vv)
			}
		}
		cnf.Clauses = append(cnf.Clauses, cl)
	}
	return cnf
}

// bruteSat decides satisfiability by exhaustive assignment enumeration.
func bruteSat(cnf *sat.CNF) bool {
	n := cnf.Vars
	assign := make([]bool, n)
	for m := 0; m < 1<<n; m++ {
		for v := 0; v < n; v++ {
			assign[v] = m&(1<<v) != 0
		}
		if ok, _ := cnf.Satisfied(assign); ok {
			return true
		}
	}
	return false
}

// determineRecorder is a Dimacs backend that also snapshots the CNF handed
// to its first Solve call: the determine-step formula, before any blocking
// clause of the uniqueness loop.
type determineRecorder struct {
	*sat.Dimacs
	determine *sat.CNF
}

func (d *determineRecorder) Solve() (bool, error) {
	if d.determine == nil {
		d.determine = d.Snapshot()
	}
	return d.Dimacs.Solve()
}

// solveRecorded runs the eager reference solve (every entry encoded before
// the first search, so the determine CNF is the whole profile) on a
// recording backend.
func solveRecorded(ctx context.Context, prof *core.Profile, maxSolutions int) (*core.Result, *determineRecorder) {
	var rec *determineRecorder
	res, err := core.SolveEager(ctx, prof, core.SolveOptions{
		MaxSolutions: maxSolutions,
		Backend: func() sat.Backend {
			rec = &determineRecorder{Dimacs: sat.NewDimacs(nil)}
			return rec
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	return res, rec
}

// genBeer records real BEER uniqueness-loop formulas through the Dimacs
// backend: a k=8 full-Set12 run (determine CNF = SAT, post-uniqueness
// final CNF = UNSAT) and a k=16 Set1-only determine CNF (SAT, many
// models — Set1 alone never pins the code down).
func genBeer(outDir string) {
	ctx := context.Background()

	// k=8, full Set12 profile: unique reconstruction, so the post-loop
	// formula is the uniqueness proof (UNSAT).
	code := ecc.RandomHamming(8, rand.New(rand.NewPCG(0xbee2, 8)))
	res, rec := solveRecorded(ctx, core.ExactProfile(code, core.Set12.Patterns(8)), -1)
	if !res.Unique {
		log.Fatalf("beer k=8: expected unique reconstruction, got %d candidates (exhausted=%v)",
			len(res.Codes), res.Exhausted)
	}
	writeInstance(outDir, "beer-k8-determine", rec.determine, true)
	writeInstance(outDir, "beer-k8-final", rec.Snapshot(), false)

	// k=16, Set1 only: underdetermined, determine CNF is comfortably SAT.
	code16 := ecc.RandomHamming(16, rand.New(rand.NewPCG(0xbee2, 16)))
	_, rec16 := solveRecorded(ctx, core.ExactProfile(code16, core.Set1.Patterns(16)), 0)
	writeInstance(outDir, "beer-k16-set1-determine", rec16.determine, true)
}

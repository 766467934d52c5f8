package core

import (
	"context"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/ecc"
	"repro/internal/sat"
)

// codeSet renders a candidate list as a canonical sorted set of exact
// parity-check matrices, for bit-identical comparison across engines.
func codeSet(t *testing.T, codes []*ecc.Code) []string {
	t.Helper()
	out := make([]string, 0, len(codes))
	for _, c := range codes {
		out = append(out, c.H().String())
	}
	sort.Strings(out)
	return out
}

func sameCodeSet(t *testing.T, a, b []*ecc.Code) bool {
	t.Helper()
	as, bs := codeSet(t, a), codeSet(t, b)
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// TestIncrementalMatchesEagerProperty is the golden cross-check: for
// randomized codes across dataword lengths, Solve (deferred CEGAR encoding
// on the persistent backend) must return bit-identical candidate sets to
// the SolveEager reference encoding — in the unique case, the
// multi-candidate case (full enumeration of an underdetermined profile)
// and the UNSAT case.
func TestIncrementalMatchesEagerProperty(t *testing.T) {
	ctx := context.Background()
	for _, k := range []int{4, 6, 8, 10} {
		for seed := uint64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(k)))
			code := ecc.RandomHamming(k, rng)
			opts := SolveOptions{ParityBits: code.ParityBits(), MaxSolutions: -1}

			// Unique / fully determined: the {1,2}-CHARGED profile.
			full := ExactProfile(code, Set12.Patterns(k))
			eager, err := SolveEager(ctx, full, opts)
			if err != nil {
				t.Fatal(err)
			}
			inc, err := Solve(ctx, full, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !sameCodeSet(t, eager.Codes, inc.Codes) || eager.Exhausted != inc.Exhausted || eager.Unique != inc.Unique {
				t.Fatalf("k=%d seed=%d full profile: eager %d codes (unique=%v) vs incremental %d codes (unique=%v)",
					k, seed, len(eager.Codes), eager.Unique, len(inc.Codes), inc.Unique)
			}
			if !eager.Unique {
				// Shortened-code Set12 profiles are unique per the paper;
				// random full-length ones always are.
				t.Logf("k=%d seed=%d: full profile not unique (%d candidates)", k, seed, len(eager.Codes))
			}

			// Multi-candidate: the 1-CHARGED profile alone typically leaves
			// several consistent functions; enumerate them all.
			part := ExactProfile(code, Set1.Patterns(k))
			eager1, err := SolveEager(ctx, part, opts)
			if err != nil {
				t.Fatal(err)
			}
			inc1, err := Solve(ctx, part, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !sameCodeSet(t, eager1.Codes, inc1.Codes) || eager1.Exhausted != inc1.Exhausted {
				t.Fatalf("k=%d seed=%d 1-CHARGED profile: eager %d codes vs incremental %d codes",
					k, seed, len(eager1.Codes), len(inc1.Codes))
			}
			if len(eager1.Codes) == 0 {
				t.Fatalf("k=%d seed=%d: exact 1-CHARGED profile has no consistent code", k, seed)
			}

			// UNSAT: the same pattern asserted with two different
			// susceptibility sets is contradictory by construction.
			bad := &Profile{K: k}
			bad.Entries = append(bad.Entries, full.Entries...)
			flip := full.Entries[len(full.Entries)-1]
			flipped := flip.Possible.Clone()
			for b := 0; b < k; b++ {
				if !flip.Pattern.Has(b) {
					flipped.Flip(b)
					break
				}
			}
			bad.Entries = append(bad.Entries, Entry{Pattern: flip.Pattern, Possible: flipped})
			eagerU, err := SolveEager(ctx, bad, opts)
			if err != nil {
				t.Fatal(err)
			}
			incU, err := Solve(ctx, bad, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(eagerU.Codes) != 0 || len(incU.Codes) != 0 || !eagerU.Exhausted || !incU.Exhausted {
				t.Fatalf("k=%d seed=%d contradictory profile: eager %d codes (exhausted=%v), incremental %d codes (exhausted=%v)",
					k, seed, len(eagerU.Codes), eagerU.Exhausted, len(incU.Codes), incU.Exhausted)
			}
		}
	}
}

// TestIncrementalSkipsPatterns: on a profile the 1-CHARGED entries nearly
// determine, the deferred engine must leave most multi-CHARGED entries
// un-encoded while returning the same answer.
func TestIncrementalSkipsPatterns(t *testing.T) {
	k := 16
	code := ecc.RandomHamming(k, rand.New(rand.NewPCG(7, 7)))
	prof := ExactProfile(code, Set12.Patterns(k))
	res, err := Solve(context.Background(), prof, SolveOptions{ParityBits: code.ParityBits()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unique {
		t.Fatalf("expected unique recovery, got %d candidates (exhausted=%v)", len(res.Codes), res.Exhausted)
	}
	if res.PatternsSkipped == 0 {
		t.Fatal("incremental solve materialized every entry; expected deferred entries to be skipped")
	}
	if res.PatternsUsed+res.PatternsSkipped != len(prof.Entries) {
		t.Fatalf("used (%d) + skipped (%d) != fed (%d)", res.PatternsUsed, res.PatternsSkipped, len(prof.Entries))
	}
	if !res.Codes[0].EquivalentTo(code) {
		t.Fatal("recovered code does not match ground truth")
	}
}

// TestSolveSessionResume feeds a profile in two installments and checks the
// resumed enumeration (a) reuses the same backend — cumulative solver stats
// only grow — and (b) lands on the same candidate set as a one-shot solve.
func TestSolveSessionResume(t *testing.T) {
	ctx := context.Background()
	k := 8
	code := ecc.RandomHamming(k, rand.New(rand.NewPCG(3, 9)))
	prof := ExactProfile(code, Set12.Patterns(k))
	opts := SolveOptions{ParityBits: code.ParityBits(), MaxSolutions: -1}

	ss, err := newSolveSession(k, opts)
	if err != nil {
		t.Fatal(err)
	}
	half := len(prof.Entries) / 2
	if err := ss.Feed(prof.Entries[:half]...); err != nil {
		t.Fatal(err)
	}
	first, err := ss.Enumerate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	statsAfterFirst := ss.enc.s.Statistics()
	if err := ss.Feed(prof.Entries[half:]...); err != nil {
		t.Fatal(err)
	}
	second, err := ss.Enumerate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ss.enc.s.Statistics().Conflicts < statsAfterFirst.Conflicts || ss.enc.s.Statistics().Propagations < statsAfterFirst.Propagations {
		t.Fatal("resumed enumeration reset solver counters; backend was not reused")
	}
	if len(second.Codes) > len(first.Codes) && first.Exhausted {
		t.Fatalf("candidate set grew (%d -> %d) after constraints tightened on an exhausted session",
			len(first.Codes), len(second.Codes))
	}

	oneShot, err := Solve(ctx, prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCodeSet(t, oneShot.Codes, second.Codes) {
		t.Fatalf("resumed session found %d codes, one-shot found %d", len(second.Codes), len(oneShot.Codes))
	}
	if !second.Unique || !oneShot.Unique {
		t.Fatalf("expected unique recovery (resumed unique=%v, one-shot unique=%v)", second.Unique, oneShot.Unique)
	}
}

// TestSolveDimacsBackend routes a full profile solve through the
// DIMACS-recording backend and checks both the answer and that a
// non-trivial CNF was captured for export.
func TestSolveDimacsBackend(t *testing.T) {
	k := 8
	code := ecc.RandomHamming(k, rand.New(rand.NewPCG(11, 4)))
	prof := ExactProfile(code, Set12.Patterns(k))
	var rec *sat.Dimacs
	opts := SolveOptions{
		ParityBits: code.ParityBits(),
		Backend: func() sat.Backend {
			rec = sat.NewDimacs(nil)
			return rec
		},
	}
	res, err := Solve(context.Background(), prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unique || !res.Codes[0].EquivalentTo(code) {
		t.Fatalf("DIMACS-backed solve: unique=%v", res.Unique)
	}
	if rec == nil || rec.NumClauses() == 0 {
		t.Fatal("recording backend captured no clauses")
	}
}

package core

import (
	"context"
	"math/rand/v2"
	"testing"

	"repro/internal/ecc"
)

// FuzzNoisyRecover holds the drop-k solver to its recovery-or-clean-UNSAT
// contract: perturb a known-good 1-CHARGED profile with fuzz-chosen false
// positives and a fuzz-chosen drop budget, then require either candidates
// whose analytic profiles agree with every retained entry, or a clean UNSAT
// report with zero confidence — never a silent wrong answer — with the
// noise accounting consistent either way. Seed corpus committed under
// testdata/fuzz/FuzzNoisyRecover.
func FuzzNoisyRecover(f *testing.F) {
	f.Add(uint8(4), uint64(1), []byte{0x03, 0x51}, int8(-1))
	f.Add(uint8(0), uint64(7), []byte{}, int8(0))
	f.Add(uint8(12), uint64(3), []byte{0xff, 0x10, 0x77, 0x02, 0x2a, 0x63}, int8(2))
	f.Fuzz(func(t *testing.T, kSel uint8, seed uint64, fpBytes []byte, budget int8) {
		k := 4 + int(kSel%13) // 4..16 keeps every solve fast under -fuzz
		rng := rand.New(rand.NewPCG(seed, uint64(k)))
		code := ecc.RandomHamming(k, rng)
		prof := ExactProfile(code, Set1.Patterns(k))

		// One false positive per byte pair (capped at 4): the first byte
		// picks the entry, the second the truly-impossible bit to corrupt.
		corrupted := map[int]bool{}
		for i := 0; i+1 < len(fpBytes) && len(corrupted) < 4; i += 2 {
			idx := int(fpBytes[i]) % len(prof.Entries)
			if corrupted[idx] {
				continue
			}
			e := prof.Entries[idx]
			flippable := make([]int, 0, k)
			for b := 0; b < k; b++ {
				if !e.Pattern.Has(b) && !e.Possible.Get(b) {
					flippable = append(flippable, b)
				}
			}
			if len(flippable) == 0 {
				continue
			}
			e.Possible.Set(flippable[int(fpBytes[i+1])%len(flippable)], true)
			corrupted[idx] = true
		}

		maxDrop := int(budget)
		if maxDrop < -1 {
			maxDrop = -1
		}
		opts := SolveOptions{
			ParityBits:   code.ParityBits(),
			MaxSolutions: 4, // bound enumeration: heavy drops under-determine the code
			Noisy:        &NoisyOptions{MaxDrop: maxDrop},
		}
		res, err := Solve(context.Background(), prof, opts)
		if err != nil {
			t.Fatal(err)
		}
		ni := res.Noise
		if ni == nil {
			t.Fatal("noisy solve reported no noise info")
		}
		if ni.Total != len(prof.Entries) || ni.Total != ni.Retained+ni.Dropped || ni.Dropped != len(ni.DroppedEntries) {
			t.Fatalf("inconsistent noise accounting: %+v", ni)
		}
		if maxDrop >= 0 && ni.Dropped > maxDrop {
			t.Fatalf("dropped %d entries over the budget %d", ni.Dropped, maxDrop)
		}
		droppedSet := map[int]bool{}
		for _, idx := range ni.DroppedEntries {
			if idx < 0 || idx >= ni.Total || droppedSet[idx] {
				t.Fatalf("bad dropped-entry index list %v", ni.DroppedEntries)
			}
			droppedSet[idx] = true
		}
		if ni.Confidence < 0 || ni.Confidence > 1 {
			t.Fatalf("confidence %v out of [0, 1]", ni.Confidence)
		}

		if len(res.Codes) == 0 {
			// Clean UNSAT: an honest failure is allowed, a confident one
			// is not.
			if ni.Confidence != 0 {
				t.Fatalf("zero candidates with confidence %v", ni.Confidence)
			}
			return
		}
		// Recovery: every candidate must reproduce every retained entry of
		// the (perturbed) profile bit-for-bit under the analytic oracle.
		for _, cand := range res.Codes {
			oracle := ExactProfile(cand, Set1.Patterns(k))
			for i, e := range prof.Entries {
				if droppedSet[i] {
					continue
				}
				if !oracle.Entries[i].Possible.Equal(e.Possible) {
					t.Fatalf("candidate disagrees with retained entry %d (corrupted=%v dropped=%v)",
						i, corrupted[i], ni.DroppedEntries)
				}
			}
		}
		if len(corrupted) == 0 {
			// The uncorrupted profile is self-consistent: nothing may be
			// dropped, and when enumeration completed the ground truth must
			// be among the candidates.
			if ni.Dropped != 0 {
				t.Fatalf("dropped %d entries from an uncorrupted profile", ni.Dropped)
			}
			if res.Exhausted {
				found := false
				for _, cand := range res.Codes {
					if cand.EquivalentTo(code) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("ground truth missing from the %d exhaustively enumerated candidates", len(res.Codes))
				}
			}
		}
	})
}

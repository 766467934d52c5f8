package ecc

import (
	"math/rand/v2"
	"testing"

	"repro/internal/gf2"
)

// diffOneBatch runs one lanes-wide encode/inject/decode differentially:
// every lane through the scalar reference path, the whole batch through the
// BitCodec, and fails on any divergence. data and mask supply per-lane
// datawords and injected-error positions.
func diffOneBatch(t *testing.T, code *Code, lanes int, data, mask []gf2.Vec) {
	t.Helper()
	bc := code.Bitsliced()
	n, k := code.N(), code.K()

	var slab gf2.Slab
	db := slab.Alloc(k, lanes)
	cb := slab.Alloc(n, lanes)
	sb := slab.Alloc(code.ParityBits(), lanes)
	mb := slab.Alloc(n, lanes)
	for j := 0; j < lanes; j++ {
		db.PackVec(j, data[j])
		mb.PackVec(j, mask[j])
	}
	bc.Encode(db, cb)
	for r := 0; r < n; r++ {
		cb.Words()[r] ^= mb.Words()[r]
	}
	bc.Syndrome(cb, sb)
	dec := bc.Decode(cb, sb, mb.Words())

	for j := 0; j < lanes; j++ {
		rx := code.Encode(data[j])
		rx.XorInto(mask[j])
		res := code.Decode(rx)

		if got := cb.UnpackLane(j); !got.Equal(res.Codeword) {
			t.Fatalf("lane %d: post-correction codeword %s, scalar %s", j, got, res.Codeword)
		}
		if got := sb.UnpackLane(j); !got.Equal(res.Syndrome) {
			t.Fatalf("lane %d: syndrome %s, scalar %s", j, got, res.Syndrome)
		}
		bit := uint64(1) << uint(j)
		if got, want := dec.SyndromeNonzero&bit != 0, !res.Syndrome.Zero(); got != want {
			t.Fatalf("lane %d: SyndromeNonzero=%v, scalar nonzero=%v", j, got, want)
		}
		if got, want := dec.FlippedAny&bit != 0, res.FlippedBit >= 0; got != want {
			t.Fatalf("lane %d: FlippedAny=%v, scalar FlippedBit=%d", j, got, res.FlippedBit)
		}
		wantErrFlip := res.FlippedBit >= 0 && mask[j].Get(res.FlippedBit)
		if got := dec.FlippedErr&bit != 0; got != wantErrFlip {
			t.Fatalf("lane %d: FlippedErr=%v, want %v (flipped %d)", j, got, wantErrFlip, res.FlippedBit)
		}
		wantUnmatched := res.DetectedUnmatched
		if got := dec.SyndromeNonzero&^dec.FlippedAny&bit != 0; got != wantUnmatched {
			t.Fatalf("lane %d: unmatched=%v, scalar DetectedUnmatched=%v", j, got, wantUnmatched)
		}
	}
}

func TestBitCodecMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xb175, 0x11ced))
	codes := []*Code{
		mustNew(Hamming74().P()),
		SequentialHamming(16),
		BitReversedHamming(32),
		RandomHamming(57, rng), // full-length (63,57)
		SequentialHamming(20),  // shortened: unmatched syndromes reachable
	}
	for _, code := range codes {
		for _, lanes := range []int{1, 3, 64} {
			for trial := 0; trial < 20; trial++ {
				data := make([]gf2.Vec, lanes)
				mask := make([]gf2.Vec, lanes)
				for j := range data {
					data[j] = gf2.NewVec(code.K())
					for i := 0; i < code.K(); i++ {
						data[j].Set(i, rng.IntN(2) == 1)
					}
					mask[j] = gf2.NewVec(code.N())
					// 0..4 injected errors exercises correct, silent,
					// partial and miscorrected outcomes.
					for e := rng.IntN(5); e > 0; e-- {
						mask[j].Flip(rng.IntN(code.N()))
					}
				}
				diffOneBatch(t, code, lanes, data, mask)
			}
		}
	}
}

func TestBitCodecColumnMatchesScalar(t *testing.T) {
	code := SequentialHamming(26)
	bc := code.Bitsliced()
	for j := 0; j < code.N(); j++ {
		if bc.Column(j) != code.Column(j).Uint64() {
			t.Fatalf("column %d: packed %#x, scalar %#x", j, bc.Column(j), code.Column(j).Uint64())
		}
	}
}

package ecc

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gf2"
)

func TestHamming74MatchesPaperEquation1(t *testing.T) {
	c := Hamming74()
	if c.N() != 7 || c.K() != 4 || c.ParityBits() != 3 {
		t.Fatalf("shape = (%d,%d)", c.N(), c.K())
	}
	if !c.FullLength() {
		t.Fatal("the (7,4) Hamming code is full-length")
	}
	wantH := gf2.MatFromBits([][]int{
		{1, 1, 1, 0, 1, 0, 0},
		{1, 1, 0, 1, 0, 1, 0},
		{1, 0, 1, 1, 0, 0, 1},
	})
	if !c.H().Equal(wantH) {
		t.Fatalf("H =\n%s\nwant\n%s", c.H(), wantH)
	}
}

func TestEncodeProducesValidCodewords(t *testing.T) {
	c := Hamming74()
	for d := uint64(0); d < 16; d++ {
		cw := c.Encode(gf2.VecFromUint(4, d))
		if !c.syndrome(cw).Zero() {
			t.Fatalf("H*c != 0 for dataword %04b", d)
		}
		if !cw.Slice(0, 4).Equal(gf2.VecFromUint(4, d)) {
			t.Fatal("encoding is not systematic")
		}
	}
}

func TestDecodeCorrectsAllSingleBitErrors(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, k := range []int{4, 7, 16, 32, 57, 64, 120, 128} {
		c := RandomHamming(k, rng)
		d := gf2.NewVec(k)
		for j := 0; j < k; j++ {
			d.Set(j, rng.IntN(2) == 1)
		}
		cw := c.Encode(d)
		for pos := 0; pos < c.N(); pos++ {
			bad := cw.Clone()
			bad.Flip(pos)
			res := c.Decode(bad)
			if !res.Data.Equal(d) {
				t.Fatalf("k=%d: single-bit error at %d not corrected", k, pos)
			}
			if res.FlippedBit != pos {
				t.Fatalf("k=%d: decoder flipped %d, want %d", k, res.FlippedBit, pos)
			}
		}
	}
}

func TestDecodeZeroSyndromeNoAction(t *testing.T) {
	c := Hamming74()
	cw := c.Encode(gf2.VecFromUint(4, 0b1010))
	res := c.Decode(cw)
	if res.FlippedBit != -1 || res.DetectedUnmatched {
		t.Fatal("clean codeword must decode with no action")
	}
	if !res.Data.Equal(gf2.VecFromUint(4, 0b1010)) {
		t.Fatal("clean codeword decoded to wrong data")
	}
}

func TestDoubleErrorsAreNotCorrectable(t *testing.T) {
	// For a full-length SEC code every double error maps to some column, so
	// the decoder always flips a third (or first) bit: the result must never
	// equal the sent codeword but must always be a valid codeword after the
	// flip only if the syndrome matched. Here we verify the decode result
	// differs from the original data for at least one double error, i.e. the
	// code is not magically correcting beyond its guarantee.
	c := Hamming74()
	d := gf2.VecFromUint(4, 0b0110)
	cw := c.Encode(d)
	sawMiss := false
	for i := 0; i < c.N(); i++ {
		for j := i + 1; j < c.N(); j++ {
			bad := cw.Clone()
			bad.Flip(i)
			bad.Flip(j)
			if !c.Decode(bad).Data.Equal(d) {
				sawMiss = true
			}
		}
	}
	if !sawMiss {
		t.Fatal("every double error decoded correctly; SEC bound violated")
	}
}

func TestShortenedCodeUnmatchedSyndrome(t *testing.T) {
	// k=5 needs r=4, n=9 < 15: shortened. Find a double error whose syndrome
	// matches no column and confirm the decoder reports it and does nothing.
	rng := rand.New(rand.NewPCG(2, 3))
	c := RandomHamming(5, rng)
	if c.FullLength() {
		t.Fatal("(9,5) code must be shortened")
	}
	d := gf2.NewVec(5)
	cw := c.Encode(d)
	found := false
	for i := 0; i < c.N() && !found; i++ {
		for j := i + 1; j < c.N() && !found; j++ {
			bad := cw.Clone()
			bad.Flip(i)
			bad.Flip(j)
			res := c.Decode(bad)
			if res.DetectedUnmatched {
				found = true
				if res.FlippedBit != -1 {
					t.Fatal("unmatched syndrome must not flip any bit")
				}
				if !res.Codeword.Equal(bad) {
					t.Fatal("unmatched syndrome must leave the codeword unchanged")
				}
			}
		}
	}
	if !found {
		t.Fatal("no unmatched-syndrome double error found for a shortened code")
	}
}

func TestNewRejectsInvalidP(t *testing.T) {
	cases := []struct {
		name string
		p    gf2.Mat
	}{
		{"zero column", gf2.MatFromBits([][]int{{1, 0}, {1, 0}})},
		{"weight-1 column", gf2.MatFromBits([][]int{{1, 1}, {1, 0}})},
		{"duplicate columns", gf2.MatFromBits([][]int{{1, 1}, {1, 1}})},
	}
	for _, tc := range cases {
		if _, err := New(tc.p); err == nil {
			t.Errorf("%s: New accepted an invalid P block", tc.name)
		}
	}
	// A 17-row P is a valid SEC block but outgrows the syndrome table.
	p := gf2.NewMat(maxParityBits+1, 2)
	for i := 0; i < p.Rows(); i++ {
		p.Set(i, 0, true)
		p.Set(i, 1, i%2 == 0)
	}
	_, err := New(p)
	if err == nil || !strings.Contains(err.Error(), "17 parity bits exceed the supported maximum of 16") {
		t.Errorf("New(17-row P) = %v, want the parity-bit limit error", err)
	}
	// The table stores columns as int16, so n may not exceed 32767.
	_, err = New(gf2.NewMat(maxParityBits, math.MaxInt16-maxParityBits+1))
	if err == nil || !strings.Contains(err.Error(), "codeword length 32768 exceeds") {
		t.Errorf("New(n=32768) = %v, want the codeword-length limit error", err)
	}
}

func TestMinParityBits(t *testing.T) {
	cases := map[int]int{1: 2, 2: 3, 4: 3, 5: 4, 11: 4, 12: 5, 26: 5, 27: 6,
		57: 6, 58: 7, 64: 7, 120: 7, 121: 8, 128: 8, 247: 8}
	for k, want := range cases {
		if got := MinParityBits(k); got != want {
			t.Errorf("MinParityBits(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestFullLengthBoundaries(t *testing.T) {
	for _, k := range []int{4, 11, 26, 57, 120} {
		if !SequentialHamming(k).FullLength() {
			t.Errorf("k=%d should be full-length", k)
		}
	}
	for _, k := range []int{5, 10, 27, 58, 119} {
		if SequentialHamming(k).FullLength() {
			t.Errorf("k=%d should be shortened", k)
		}
	}
}

func TestRandomHammingValidAndDeterministic(t *testing.T) {
	for _, k := range []int{4, 13, 32, 64, 128} {
		a := RandomHamming(k, rand.New(rand.NewPCG(9, uint64(k))))
		b := RandomHamming(k, rand.New(rand.NewPCG(9, uint64(k))))
		if !a.Equal(b) {
			t.Errorf("k=%d: same seed produced different codes", k)
		}
		c := RandomHamming(k, rand.New(rand.NewPCG(10, uint64(k))))
		if k > 4 && a.Equal(c) {
			t.Errorf("k=%d: different seeds produced identical codes", k)
		}
	}
}

func TestConstructorFamiliesDiffer(t *testing.T) {
	// The manufacturer families must be inequivalent (not merely unequal):
	// equivalent codes are externally indistinguishable, so equivalent
	// "different" designs would be the same ECC function to BEER.
	for _, k := range []int{11, 16, 32, 64, 128} {
		seq := SequentialHamming(k)
		low := LowWeightHamming(k)
		rnd := RandomHamming(k, rand.New(rand.NewPCG(4, uint64(k))))
		if seq.EquivalentTo(low) {
			t.Fatalf("k=%d: sequential and low-weight designs are equivalent", k)
		}
		if seq.EquivalentTo(rnd) || low.EquivalentTo(rnd) {
			t.Fatalf("k=%d: random design collides with a structured one", k)
		}
	}
}

// Bit reversal permutes parity rows, so BitReversedHamming is documented to
// be an equivalent code to SequentialHamming: a worked example of why
// equality must be tested up to equivalence.
func TestBitReversedIsEquivalentToSequential(t *testing.T) {
	for _, k := range []int{8, 16, 32} {
		seq := SequentialHamming(k)
		rev := BitReversedHamming(k)
		if seq.Equal(rev) {
			t.Fatalf("k=%d: matrices should differ literally", k)
		}
		if !seq.EquivalentTo(rev) {
			t.Fatalf("k=%d: bit reversal must yield an equivalent code", k)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	for _, k := range []int{4, 16, 57, 128} {
		orig := RandomHamming(k, rng)
		text, err := orig.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Code
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !orig.Equal(&back) {
			t.Fatalf("k=%d: round trip changed the code", k)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	var c Code
	for _, text := range []string{"", "secham 7 4", "bogus 1 2\n111", "secham 7 4\n11\n11\n11"} {
		if err := c.UnmarshalText([]byte(text)); err == nil {
			t.Errorf("UnmarshalText(%q) succeeded", text)
		}
	}
}

// TestColumnOfSyndromeRoundTrip checks the syndrome table exhaustively:
// every packed syndrome resolves to the H column equal to it, or to -1
// when a column scan finds none, for every construction at full-length
// (k = 4, 11, 26, 57, 120) and shortened dataword lengths.
func TestColumnOfSyndromeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 1))
	constructions := map[string]func(k int) *Code{
		"sequential":   SequentialHamming,
		"low-weight":   LowWeightHamming,
		"bit-reversed": BitReversedHamming,
		"random":       func(k int) *Code { return RandomHamming(k, rng) },
	}
	for name, build := range constructions {
		for _, k := range []int{4, 8, 11, 16, 24, 26, 32, 57, 64, 120, 128} {
			c := build(k)
			r := c.ParityBits()
			for s := uint64(0); s < 1<<uint(r); s++ {
				want := -1
				for j := 0; j < c.N(); j++ {
					if c.Column(j).Uint64() == s {
						want = j
					}
				}
				if got := c.ColumnOfPackedSyndrome(s); got != want {
					t.Fatalf("%s k=%d: syndrome %#x resolved to %d, column scan finds %d", name, k, s, got, want)
				}
				if got := c.ColumnOfSyndrome(gf2.VecFromUint(r, s)); got != want {
					t.Fatalf("%s k=%d: ColumnOfSyndrome(%#x) = %d, want %d", name, k, s, got, want)
				}
			}
			if c.ColumnOfPackedSyndrome(1<<uint(r)) != -1 {
				t.Fatalf("%s k=%d: syndrome past the table resolved to a column", name, k)
			}
		}
	}
}

// Property: decoding an encoded word with at most one injected error always
// recovers the data, for random codes, datawords and error positions.
func TestDecodeProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 7))
	for trial := 0; trial < 300; trial++ {
		k := 4 + rng.IntN(60)
		c := RandomHamming(k, rng)
		d := gf2.NewVec(k)
		for j := 0; j < k; j++ {
			d.Set(j, rng.IntN(2) == 1)
		}
		cw := c.Encode(d)
		if rng.IntN(2) == 1 {
			cw.Flip(rng.IntN(c.N()))
		}
		if !c.Decode(cw).Data.Equal(d) {
			t.Fatalf("trial %d: <=1 error not corrected (k=%d)", trial, k)
		}
	}
}

// Property (testing/quick): permuting the parity rows preserves
// equivalence and the canonical key.
func TestCanonicalizeQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 13))
		k := 4 + int(seed%20)
		code := RandomHamming(k, rng)
		rows := make([]gf2.Vec, code.ParityBits())
		for i := range rows {
			rows[i] = code.P().Row(i)
		}
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		perm := mustNew(gf2.MatFromRows(rows...))
		return perm.EquivalentTo(code) && perm.CanonicalKey() == code.CanonicalKey()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// countHammingCodes returns the number of distinct standard-form (k+r, k) SEC
// Hamming codes, i.e. the falling factorial (2^r - r - 1)(2^r - r - 2)...
// over k terms, saturating at math.MaxUint64. This quantifies the design
// space BEER disambiguates (paper §3.3 "Design Space").
func countHammingCodes(k, r int) uint64 {
	avail := (uint64(1) << uint(r)) - uint64(r) - 1
	if uint64(k) > avail {
		return 0
	}
	total := uint64(1)
	for i := uint64(0); i < uint64(k); i++ {
		next := total * (avail - i)
		if total != 0 && next/total != avail-i {
			return ^uint64(0) // overflow: saturate
		}
		total = next
	}
	return total
}

func TestCountHammingCodes(t *testing.T) {
	// r=3: 2^3-3-1 = 4 candidate columns; k=4 ordered choices = 4! = 24.
	if got := countHammingCodes(4, 3); got != 24 {
		t.Fatalf("countHammingCodes(4,3) = %d, want 24", got)
	}
	if got := countHammingCodes(5, 3); got != 0 {
		t.Fatalf("countHammingCodes(5,3) = %d, want 0", got)
	}
	if got := countHammingCodes(128, 8); got != ^uint64(0) {
		t.Fatalf("countHammingCodes(128,8) should saturate, got %d", got)
	}
}

package ondie

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/dram"
)

func smallConfig(m Manufacturer) Config {
	return Config{
		Manufacturer:  m,
		DataBits:      32,
		Banks:         1,
		Rows:          64,
		RegionsPerRow: 4,
		Seed:          3,
	}
}

func TestRoundTripNoErrors(t *testing.T) {
	for _, m := range []Manufacturer{MfrA, MfrB, MfrC} {
		chip := MustNew(smallConfig(m))
		rng := rand.New(rand.NewPCG(1, 2))
		data := make([]byte, chip.DataBytesPerRow())
		for i := range data {
			data[i] = byte(rng.IntN(256))
		}
		chip.WriteRow(0, 5, data)
		got := chip.ReadRow(0, 5)
		if !bytes.Equal(got, data) {
			t.Fatalf("mfr %s: data corrupted without any refresh pause", m)
		}
	}
}

func TestECCMasksLightDecay(t *testing.T) {
	// With a short pause, the raw substrate shows a few single-bit errors but
	// the on-die ECC corrects (or at least dramatically reduces) them; with a
	// long pause errors overwhelm the SEC code and become visible.
	chip := MustNew(Config{
		Manufacturer: MfrA, DataBits: 32, Banks: 1, Rows: 256, RegionsPerRow: 4, Seed: 7,
	})
	writeAll := func(val byte) {
		data := make([]byte, chip.DataBytesPerRow())
		for i := range data {
			data[i] = val
		}
		for r := 0; r < chip.Rows(); r++ {
			chip.WriteRow(0, r, data)
		}
	}
	countErrs := func(val byte) int {
		errs := 0
		for r := 0; r < chip.Rows(); r++ {
			for _, by := range chip.ReadRow(0, r) {
				diff := by ^ val
				for ; diff != 0; diff &= diff - 1 {
					errs++
				}
			}
		}
		return errs
	}
	writeAll(0xFF)
	chip.PauseRefresh(8 * time.Minute)
	shortErrs := countErrs(0xFF)

	writeAll(0xFF)
	chip.PauseRefresh(45 * time.Minute)
	longErrs := countErrs(0xFF)

	if longErrs <= shortErrs {
		t.Fatalf("long pause (%d errors) should beat short pause (%d)", longErrs, shortErrs)
	}
	if longErrs == 0 {
		t.Fatal("45-minute pause should overwhelm SEC correction")
	}
}

func TestManufacturersUseDifferentSecretCodes(t *testing.T) {
	a := MustNew(smallConfig(MfrA)).GroundTruthCode()
	b := MustNew(smallConfig(MfrB)).GroundTruthCode()
	c := MustNew(smallConfig(MfrC)).GroundTruthCode()
	if a.Equal(b) || a.Equal(c) || b.Equal(c) {
		t.Fatal("manufacturers must use distinct ECC functions")
	}
	// Same manufacturer + model (seed irrelevant to the code) => same code.
	cfg := smallConfig(MfrA)
	cfg.Seed = 999
	if !MustNew(cfg).GroundTruthCode().Equal(a) {
		t.Fatal("same manufacturer/model must use the same ECC function")
	}
}

func TestCellLayouts(t *testing.T) {
	a := MustNew(smallConfig(MfrA))
	for r := 0; r < a.Rows(); r++ {
		if a.GroundTruthCellType(0, r) != dram.TrueCell {
			t.Fatal("manufacturer A must be all true-cells")
		}
	}
	cfg := smallConfig(MfrC)
	cfg.Rows = 4096 // enough for the paper's 800/824/1224 blocks
	c := MustNew(cfg)
	sawTrue, sawAnti := false, false
	for r := 0; r < c.Rows(); r++ {
		switch c.GroundTruthCellType(0, r) {
		case dram.TrueCell:
			sawTrue = true
		case dram.AntiCell:
			sawAnti = true
		}
	}
	if !sawTrue || !sawAnti {
		t.Fatal("manufacturer C must mix true- and anti-cells")
	}
	if c.GroundTruthCellType(0, 0) != dram.TrueCell || c.GroundTruthCellType(0, 800) != dram.AntiCell {
		t.Fatal("manufacturer C blocks must start true at row 0 and flip at row 800")
	}
	// Small chips still get both types via scaled blocks.
	small := MustNew(smallConfig(MfrC))
	sawTrue, sawAnti = false, false
	for r := 0; r < small.Rows(); r++ {
		if small.GroundTruthCellType(0, r) == dram.TrueCell {
			sawTrue = true
		} else {
			sawAnti = true
		}
	}
	if !sawTrue || !sawAnti {
		t.Fatal("scaled manufacturer C layout lost a cell type")
	}
}

func TestInterleavingGroundTruth(t *testing.T) {
	chip := MustNew(smallConfig(MfrA))
	// Region bytes alternate between the two words.
	for off := 0; off < chip.RegionBytes(); off++ {
		word, byteIn := chip.GroundTruthWordOfRegionByte(off)
		if word != off%2 || byteIn != off/2 {
			t.Fatalf("offset %d mapped to (%d,%d)", off, word, byteIn)
		}
	}
}

// A single-bit flip confined to one dataword must stay confined to its
// (interleaved) word even when the ECC miscorrects: errors never leak into
// the other word of the region.
func TestErrorsConfinedToWord(t *testing.T) {
	cfg := smallConfig(MfrB)
	cfg.Rows = 512
	chip := MustNew(cfg)
	data := make([]byte, chip.DataBytesPerRow())
	// Charge one bit of word 0 in region 0 (region byte 0 = word 0 byte 0).
	for r := 0; r < chip.Rows(); r++ {
		d := make([]byte, len(data))
		d[0] = 0x01
		chip.WriteRow(0, r, d)
	}
	chip.PauseRefresh(40 * time.Minute)
	for r := 0; r < chip.Rows(); r++ {
		got := chip.ReadRow(0, r)
		for off := 0; off < chip.RegionBytes(); off++ {
			want := byte(0)
			if off == 0 {
				want = 0x01
			}
			if got[off] != want && off%2 == 1 {
				t.Fatalf("row %d: error leaked into word 1 at region byte %d", r, off)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Manufacturer: MfrA, DataBits: 30, Banks: 1, Rows: 1, RegionsPerRow: 1},
		{Manufacturer: MfrA, DataBits: 32, Banks: 0, Rows: 1, RegionsPerRow: 1},
		{Manufacturer: MfrA, DataBits: 0, Banks: 1, Rows: 1, RegionsPerRow: 1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestDefaultConfigIsPaperScale(t *testing.T) {
	chip := MustNew(Config{
		Manufacturer:  MfrA,
		DataBits:      128,
		Banks:         1,
		Rows:          2048,
		RegionsPerRow: 8,
		Seed:          1,
	})
	if chip.GroundTruthCode().K() != 128 {
		t.Fatal("paper-scale chips use 128-bit datawords")
	}
	if chip.RegionBytes() != 32 {
		t.Fatalf("region = %dB, want 32B (two interleaved 16B words)", chip.RegionBytes())
	}
	if chip.GroundTruthCode().N() != 136 {
		t.Fatalf("codeword = %d bits, want 136", chip.GroundTruthCode().N())
	}
}

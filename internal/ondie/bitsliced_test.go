package ondie

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/dram"
)

// TestBitslicedRowsMatchScalar holds the bitsliced WriteRow/ReadRow path
// byte-identical to the scalar per-word reference across dataword lengths
// (n > 64 from k=64 on), more than 64 words per row (two batch chunks),
// all three manufacturers (C has anti-cell rows), decay and transient
// noise. Rows hold all-zero, all-one, random and 1-CHARGED data, and each
// is read several times after each decaying pause. Identical seeds give
// identical substrate decay, so any divergence is in the codec layering.
func TestBitslicedRowsMatchScalar(t *testing.T) {
	for _, k := range []int{8, 16, 24, 32, 64, 128} {
		for _, mfr := range []Manufacturer{MfrA, MfrB, MfrC} {
			t.Run(fmt.Sprintf("k=%d/mfr=%s", k, mfr), func(t *testing.T) {
				cfg := Config{
					Manufacturer:  mfr,
					DataBits:      k,
					Banks:         1,
					Rows:          16,
					RegionsPerRow: 33,
					Seed:          77,
					TransientBER:  1e-3,
				}
				fast := MustNew(cfg)
				cfg.ScalarECC = true
				ref := MustNew(cfg)

				rng := rand.New(rand.NewPCG(1, uint64(k)<<8|uint64(len(mfr))))
				rows := fast.Rows()
				for r := 0; r < rows; r++ {
					data := make([]byte, fast.DataBytesPerRow())
					switch r % 4 {
					case 0: // all-zero
					case 1:
						for i := range data {
							data[i] = 0xff
						}
					case 2:
						for i := range data {
							data[i] = byte(rng.Uint32())
						}
					case 3: // 1-CHARGED: one charged data cell per word
						if fast.GroundTruthCellType(0, r) == dram.AntiCell {
							for i := range data {
								data[i] = 0xff
							}
						}
						for w := 0; w < fast.WordsPerRow(); w++ {
							bit := rng.IntN(k)
							i := (w/2)*fast.RegionBytes() + 2*(bit/8) + w%2
							data[i] ^= 1 << uint(bit%8)
						}
					}
					fast.WriteRow(0, r, data)
					ref.WriteRow(0, r, data)
				}
				for pass, pause := range []time.Duration{5 * time.Minute, 40 * time.Minute, 3 * time.Hour} {
					fast.PauseRefresh(pause)
					ref.PauseRefresh(pause)
					for r := 0; r < rows; r++ {
						for rep := 0; rep < 2; rep++ {
							got := fast.ReadRow(0, r)
							want := ref.ReadRow(0, r)
							if !bytes.Equal(got, want) {
								t.Fatalf("pass %d row %d rep %d: bitsliced read diverges from scalar", pass, r, rep)
							}
						}
					}
				}
			})
		}
	}
}

// TestWriteRowSteadyStateAllocs pins the per-chip-scratch property: warm row
// writes allocate nothing, warm reads allocate only the returned bytes.
func TestWriteRowSteadyStateAllocs(t *testing.T) {
	c := MustNew(Config{Manufacturer: MfrB, DataBits: 16, Banks: 1, Rows: 4, RegionsPerRow: 4, Seed: 3})
	data := make([]byte, c.DataBytesPerRow())
	for i := range data {
		data[i] = byte(i * 37)
	}
	c.WriteRow(0, 0, data)
	c.ReadRow(0, 0)
	if allocs := testing.AllocsPerRun(50, func() { c.WriteRow(0, 0, data) }); allocs != 0 {
		t.Fatalf("warm WriteRow allocated %v times per call", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { c.ReadRow(0, 0) }); allocs > 1 {
		t.Fatalf("warm ReadRow allocated %v times per call; want only the result slice", allocs)
	}
}

// TestManyWordsPerRow exercises the >64-words-per-row chunking (two ragged
// batch chunks per row).
func TestManyWordsPerRow(t *testing.T) {
	cfg := Config{Manufacturer: MfrB, DataBits: 8, Banks: 1, Rows: 2, RegionsPerRow: 40, Seed: 11}
	fast := MustNew(cfg)
	cfg.ScalarECC = true
	ref := MustNew(cfg)
	if fast.WordsPerRow() <= 64 {
		t.Fatalf("config does not exceed 64 words per row (%d)", fast.WordsPerRow())
	}
	data := make([]byte, fast.DataBytesPerRow())
	for i := range data {
		data[i] = byte(255 - i)
	}
	fast.WriteRow(0, 1, data)
	ref.WriteRow(0, 1, data)
	fast.PauseRefresh(30 * time.Minute)
	ref.PauseRefresh(30 * time.Minute)
	if got, want := fast.ReadRow(0, 1), ref.ReadRow(0, 1); !bytes.Equal(got, want) {
		t.Fatal("chunked bitsliced read diverges from scalar")
	}
}

// BenchmarkReadRowInto times one decaying k=24 row read through the
// bitsliced codec (16 regions, the simulated chips' row shape), alternating
// all-one and random rows.
func BenchmarkReadRowInto(b *testing.B) {
	c := MustNew(Config{Manufacturer: MfrB, DataBits: 24, Banks: 1, Rows: 8, RegionsPerRow: 16, Seed: 5})
	rng := rand.New(rand.NewPCG(2, 3))
	data := make([]byte, c.DataBytesPerRow())
	for r := 0; r < 8; r++ {
		for i := range data {
			if r%2 == 0 {
				data[i] = 0xff
			} else {
				data[i] = byte(rng.Uint32())
			}
		}
		c.WriteRow(0, r, data)
	}
	c.PauseRefresh(48 * time.Minute)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ReadRowInto(0, i%8, data)
	}
}

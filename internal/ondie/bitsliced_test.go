package ondie

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/dram"
)

// TestBitslicedRowsMatchScalar holds the default WriteRow/ReadRow path (the
// word-at-a-time codec over packed H columns) byte-identical to the
// Config.ScalarECC reference across dataword lengths (n > 64 from k=64 on,
// so words span several 64-bit cell chunks), more than 64 words per row,
// all three manufacturers (C has anti-cell rows), decay and transient
// noise. Rows hold all-zero, all-one, random and 1-CHARGED data, each is
// read several times after each decaying pause, and a quarter of the rows
// is rewritten with new data between pauses, so a read must decode from the
// latest write. From k=64 on, some reads must see one word's flipped cells
// in several 64-bit words of the row's flip vector. Identical seeds give
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
				write := func(r, shape int) {
					data := make([]byte, fast.DataBytesPerRow())
					switch shape % 4 {
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
				for r := 0; r < rows; r++ {
					write(r, r)
				}
				spanning := 0 // reads with one word's flips in several flip-vector words
				for pass, pause := range []time.Duration{5 * time.Minute, 40 * time.Minute, 3 * time.Hour} {
					fast.PauseRefresh(pause)
					ref.PauseRefresh(pause)
					for r := 0; r < rows; r++ {
						for rep := 0; rep < 2; rep++ {
							got := fast.ReadRow(0, r)
							want := ref.ReadRow(0, r)
							if !bytes.Equal(got, want) {
								t.Fatalf("pass %d row %d rep %d: read diverges from scalar", pass, r, rep)
							}
							if wordFlipsSpanChunks(fast) {
								spanning++
							}
						}
					}
					for r := pass; r < rows; r += 4 {
						write(r, r+pass+1)
					}
				}
				if k >= 64 && spanning == 0 {
					t.Fatal("no read flipped cells of one word in several 64-bit flip-vector words")
				}
			})
		}
	}
}

// wordFlipsSpanChunks reports whether the chip's last read flipped cells of
// one ECC word that lie in different 64-bit words of the row's flip vector.
func wordFlipsSpanChunks(c *Chip) bool {
	n := c.code.N()
	last := make([]int, c.wordsPerRow)
	for i := range last {
		last[i] = -1
	}
	for _, p := range c.cells.Support() {
		w := p / n
		if last[w] >= 0 && last[w] != p/64 {
			return true
		}
		last[w] = p / 64
	}
	return false
}

// TestWriteRowSteadyStateAllocs pins the per-chip-scratch property: warm row
// writes and ReadRowInto calls allocate nothing, and ReadRow allocates only
// the returned bytes.
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
	c.PauseRefresh(40 * time.Minute) // decay and correct on every read
	if allocs := testing.AllocsPerRun(50, func() { c.ReadRowInto(0, 0, data) }); allocs != 0 {
		t.Fatalf("warm ReadRowInto allocated %v times per call", allocs)
	}
}

// TestManyWordsPerRow checks a row of more than 64 words against the scalar
// reference.
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
		t.Fatal("read of a >64-word row diverges from scalar")
	}
}

// BenchmarkReadRowInto times one decaying k=24 row read (16 regions, the
// simulated chips' row shape) after a 48-minute pause. dense rows alternate
// all-one and random data, so most of their cells are charged and many
// flip; sparse rows hold one or two charged data bits per word, as a Set12
// collection sweep writes them (see set12Rows), so few cells flip.
func BenchmarkReadRowInto(b *testing.B) {
	rng := rand.New(rand.NewPCG(2, 3))
	for _, bc := range []struct {
		name string
		rows func(c *Chip) [][]byte
	}{
		{"dense", func(c *Chip) [][]byte {
			rows := make([][]byte, 8)
			for r := range rows {
				rows[r] = make([]byte, c.DataBytesPerRow())
				for i := range rows[r] {
					if r%2 == 0 {
						rows[r][i] = 0xff
					} else {
						rows[r][i] = byte(rng.Uint32())
					}
				}
			}
			return rows
		}},
		{"sparse", func(c *Chip) [][]byte { return set12Rows(c, rng) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := MustNew(Config{Manufacturer: MfrB, DataBits: 24, Banks: 1, Rows: 8, RegionsPerRow: 16, Seed: 5})
			for r, data := range bc.rows(c) {
				c.WriteRow(0, r, data)
			}
			c.PauseRefresh(48 * time.Minute)
			data := make([]byte, c.DataBytesPerRow())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.ReadRowInto(0, i%8, data)
			}
		})
	}
}

// set12Rows returns 8 rows for c whose words each hold one or two charged
// data bits, as a Set12 collection sweep writes them.
func set12Rows(c *Chip, rng *rand.Rand) [][]byte {
	k := c.code.K()
	rows := make([][]byte, 8)
	for r := range rows {
		data := make([]byte, c.DataBytesPerRow())
		for w := 0; w < c.WordsPerRow(); w++ {
			for i := 1 + rng.IntN(2); i > 0; i-- {
				bit := rng.IntN(k)
				data[(w/2)*c.RegionBytes()+2*(bit/8)+w%2] |= 1 << uint(bit%8)
			}
		}
		rows[r] = data
	}
	return rows
}

// BenchmarkWriteRow times one k=24 row write (16 regions) of words with one
// or two charged data bits, as a Set12 collection sweep writes them.
func BenchmarkWriteRow(b *testing.B) {
	c := MustNew(Config{Manufacturer: MfrB, DataBits: 24, Banks: 1, Rows: 8, RegionsPerRow: 16, Seed: 5})
	rows := set12Rows(c, rand.New(rand.NewPCG(4, 5)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.WriteRow(0, i%8, rows[i%8])
	}
}

// FuzzRowCodec holds the default row codec byte-identical to the
// Config.ScalarECC reference over fuzzed row data, dataword lengths,
// manufacturers, refresh pauses and transient noise: both chips get the
// same writes and, after every pause, the same repeated reads. After each
// pause's reads, one row (chosen by the pause byte) is rewritten with its
// data shifted by one more byte, so later reads decode a newer write.
func FuzzRowCodec(f *testing.F) {
	f.Add([]byte{0xff, 0x01, 0x80}, uint8(2), uint8(1), []byte{40, 90}, uint8(0))
	f.Add([]byte{0xff, 0xfe, 0x7f}, uint8(5), uint8(2), []byte{120, 1, 200}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, kSel, mfrSel uint8, pauses []byte, berSel uint8) {
		cfg := Config{
			Manufacturer:  []Manufacturer{MfrA, MfrB, MfrC}[int(mfrSel)%3],
			DataBits:      []int{8, 16, 24, 32, 64, 128}[int(kSel)%6],
			Banks:         1,
			Rows:          4, // manufacturer C alternates true and anti rows
			RegionsPerRow: 3,
			Seed:          uint64(kSel)<<8 | uint64(mfrSel),
			TransientBER:  []float64{0, 1e-4, 1e-3, 1e-2}[int(berSel)%4],
		}
		fast := MustNew(cfg)
		cfg.ScalarECC = true
		ref := MustNew(cfg)
		row := make([]byte, fast.DataBytesPerRow())
		write := func(r, shift int) {
			if len(data) > 0 {
				for i := range row {
					row[i] = data[(r*len(row)+i+shift)%len(data)]
				}
			}
			fast.WriteRow(0, r, row)
			ref.WriteRow(0, r, row)
		}
		for r := 0; r < fast.Rows(); r++ {
			write(r, 0)
		}
		if len(pauses) > 8 {
			pauses = pauses[:8]
		}
		for i, p := range pauses {
			fast.PauseRefresh(time.Duration(p) * time.Minute)
			ref.PauseRefresh(time.Duration(p) * time.Minute)
			for r := 0; r < fast.Rows(); r++ {
				for rep := 0; rep < 2; rep++ {
					if got, want := fast.ReadRowInto(0, r, row), ref.ReadRow(0, r); !bytes.Equal(got, want) {
						t.Fatalf("pause %d min, row %d, rep %d: read %x, scalar reference %x", p, r, rep, got, want)
					}
				}
			}
			write(int(p)%fast.Rows(), i+1)
		}
	})
}

package core

import (
	"context"
	"math/bits"
	"slices"
	"testing"
	"time"

	"repro/internal/ondie"
)

// collectCountsReference is CollectCounts counted byte by byte: it rebuilds
// each word's pattern bytes for every write and compares every covered row
// byte of every read against them. FuzzCollectCounts holds CollectCounts
// equal to it.
func collectCountsReference(chip Chip, rows []RowRef, layout WordLayout, patterns []Pattern, opts CollectOptions) *Counts {
	k := layout.K()
	rounds := max(opts.Rounds, 1)
	chip.SetTemperature(opts.TempC)

	rb := layout.RegionBytes
	regionsPerRow := chip.DataBytesPerRow() / rb
	wordsPerRow := regionsPerRow * len(layout.Words)

	counts := &Counts{K: k}
	patBytes := make([][]byte, len(patterns))
	for pi, p := range patterns {
		counts.Entries = append(counts.Entries, CountEntry{Pattern: p, Errors: make([]int64, k), Anti: opts.Invert})
		bs := make([]byte, k/8)
		for _, bit := range p.Charged() {
			bs[bit/8] |= 1 << uint(bit%8)
		}
		if opts.Invert {
			for i := range bs {
				bs[i] = ^bs[i]
			}
		}
		patBytes[pi] = bs
	}

	// offs[w*nb+bi] is the row byte offset of row word w's byte bi.
	nb := k / 8
	var offs []int
	for region := 0; region < regionsPerRow; region++ {
		for _, word := range layout.Words {
			for _, off := range word {
				offs = append(offs, region*rb+off)
			}
		}
	}
	rowData := make([]byte, chip.DataBytesPerRow())
	readRow := rowReadFunc(chip)
	pass := 0
	for round := 0; round < rounds; round++ {
		for _, window := range opts.Windows {
			first := pass * 7919 % len(patterns)
			pass++
			pi := first
			for _, rr := range rows {
				for w := 0; w < wordsPerRow; w++ {
					for bi, b := range patBytes[pi] {
						rowData[offs[w*nb+bi]] = b
					}
					pi = (pi + 1) % len(patterns)
				}
				chip.WriteRow(rr.Bank, rr.Row, rowData)
			}
			chip.PauseRefresh(window)
			pi = first
			for _, rr := range rows {
				got := readRow(rr.Bank, rr.Row)
				for w := 0; w < wordsPerRow; w++ {
					entry := &counts.Entries[pi]
					entry.Words++
					for bi, b := range patBytes[pi] {
						for diff := got[offs[w*nb+bi]] ^ b; diff != 0; diff &= diff - 1 {
							entry.Errors[8*bi+bits.TrailingZeros8(diff)]++
						}
					}
					pi = (pi + 1) % len(patterns)
				}
			}
		}
	}
	return counts
}

// readRowOnly hides ondie.Chip's ReadRowInto, leaving the allocating
// ReadRow of the plain Chip interface.
type readRowOnly struct{ Chip }

// FuzzCollectCounts holds CollectCounts' written-row XOR counting equal to
// the byte-wise reference, run on a second identically built chip: every
// entry's Words, Errors and Anti must match across dataword lengths,
// manufacturers, row sizes (including ones that are not a multiple of 8
// bytes), polarity, rounds, windows, pattern sets and chips without
// ReadRowInto. Seed corpus committed under testdata/fuzz/FuzzCollectCounts.
func FuzzCollectCounts(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(0), false, uint8(1), []byte{20, 40}, false, false, uint64(1))
	f.Add(uint8(0), uint8(2), uint8(2), true, uint8(2), []byte{8, 44}, true, true, uint64(7))
	f.Add(uint8(15), uint8(0), uint8(1), false, uint8(0), []byte{30}, false, false, uint64(3))
	f.Fuzz(func(t *testing.T, kSel, mfrSel, rprSel uint8, invert bool, roundSel uint8, windowSel []byte, readOnly, twoCharged bool, seed uint64) {
		k := 8 * (1 + int(kSel%16)) // 8..128
		mfr := []ondie.Manufacturer{ondie.MfrA, ondie.MfrB, ondie.MfrC}[mfrSel%3]
		cfg := ondie.Config{
			Manufacturer:  mfr,
			DataBits:      k,
			Banks:         2,
			Rows:          8,
			RegionsPerRow: 1 + int(rprSel%4),
			Seed:          seed,
		}
		opts := CollectOptions{TempC: 80, Rounds: int(roundSel % 3), Invert: invert}
		for _, b := range windowSel[:min(len(windowSel), 3)] {
			opts.Windows = append(opts.Windows, time.Duration(4+int(b%45))*time.Minute)
		}
		if len(opts.Windows) == 0 {
			opts.Windows = []time.Duration{20 * time.Minute}
		}
		patterns := Set1.Patterns(k)
		if twoCharged {
			patterns = Set12.Patterns(k)
		}
		// The chip's own layout: each region interleaves two words byte by
		// byte.
		layout := WordLayout{RegionBytes: 2 * k / 8, Words: [][]int{{}, {}}}
		for b := 0; b < k/8; b++ {
			layout.Words[0] = append(layout.Words[0], 2*b)
			layout.Words[1] = append(layout.Words[1], 2*b+1)
		}
		var rows []RowRef
		for bank := 0; bank < cfg.Banks; bank++ {
			for row := 0; row < cfg.Rows; row++ {
				rows = append(rows, RowRef{Bank: bank, Row: row})
			}
		}
		build := func() Chip {
			chip := ondie.MustNew(cfg)
			if readOnly {
				return readRowOnly{chip}
			}
			return chip
		}

		got, err := CollectCounts(context.Background(), build(), rows, layout, patterns, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := collectCountsReference(build(), rows, layout, patterns, opts)
		if len(got.Entries) != len(want.Entries) {
			t.Fatalf("%d entries, reference has %d", len(got.Entries), len(want.Entries))
		}
		for i, g := range got.Entries {
			w := want.Entries[i]
			if g.Words != w.Words || g.Anti != w.Anti || !slices.Equal(g.Errors, w.Errors) {
				t.Fatalf("entry %d (%v): words %d anti %v errors %v; reference words %d anti %v errors %v",
					i, g.Pattern, g.Words, g.Anti, g.Errors, w.Words, w.Anti, w.Errors)
			}
		}
	})
}

// tailChip appends tail bytes that no word covers to every row of a
// ReadRow-only chip: they read back as zero, and writing a row of the
// wrong length or anything but zero there marks the chip dirty.
type tailChip struct {
	Chip
	tail  int
	dirty bool
}

func (c *tailChip) DataBytesPerRow() int { return c.Chip.DataBytesPerRow() + c.tail }

func (c *tailChip) WriteRow(bank, row int, data []byte) {
	n := c.Chip.DataBytesPerRow()
	if len(data) != n+c.tail || slices.ContainsFunc(data[n:], func(b byte) bool { return b != 0 }) {
		c.dirty = true
	}
	c.Chip.WriteRow(bank, row, data[:n])
}

func (c *tailChip) ReadRow(bank, row int) []byte {
	return append(c.Chip.ReadRow(bank, row), make([]byte, c.tail)...)
}

// TestCollectCountsRowTail runs CollectCounts on rows with bytes past their
// last whole region: those bytes must be written as zero, and the counts
// must equal the byte-wise reference's.
func TestCollectCountsRowTail(t *testing.T) {
	cfg := ondie.Config{Manufacturer: ondie.MfrB, DataBits: 24, Banks: 1, Rows: 6, RegionsPerRow: 3, Seed: 5}
	layout := WordLayout{RegionBytes: 6, Words: [][]int{{0, 2, 4}, {1, 3, 5}}}
	rows := []RowRef{{0, 0}, {0, 1}, {0, 2}, {0, 3}}
	opts := CollectOptions{TempC: 80, Rounds: 2, Windows: []time.Duration{20 * time.Minute, 40 * time.Minute}}
	patterns := Set12.Patterns(24)
	chip := &tailChip{Chip: ondie.MustNew(cfg), tail: 5}
	got, err := CollectCounts(context.Background(), chip, rows, layout, patterns, opts)
	if err != nil {
		t.Fatal(err)
	}
	if chip.dirty {
		t.Fatal("CollectCounts wrote short rows or nonzero bytes past the last whole region")
	}
	want := collectCountsReference(&tailChip{Chip: ondie.MustNew(cfg), tail: 5}, rows, layout, patterns, opts)
	for i, g := range got.Entries {
		if w := want.Entries[i]; g.Words != w.Words || !slices.Equal(g.Errors, w.Errors) {
			t.Fatalf("entry %d (%v): words %d errors %v; reference words %d errors %v",
				i, g.Pattern, g.Words, g.Errors, w.Words, w.Errors)
		}
	}
}

package core

import (
	"fmt"
	"math/bits"
	"time"
)

// Chip is the system-visible surface of a DRAM chip with on-die ECC: data
// reads/writes plus refresh and temperature control. This is all BEER is
// allowed to use (no ECC metadata, no hardware hooks). ondie.Chip implements
// it; so would a driver for real test hardware.
type Chip interface {
	Banks() int
	Rows() int
	DataBytesPerRow() int
	// RegionBytes is the ECC-word-pair granularity of the address space (32
	// bytes on the paper's chips). Knowing the region size is weaker than
	// knowing the layout: which bytes inside a region belong to which word,
	// and the dataword length, are discovered by DiscoverWordLayout.
	RegionBytes() int
	WriteRow(bank, row int, data []byte)
	ReadRow(bank, row int) []byte
	SetTemperature(celsius float64)
	PauseRefresh(d time.Duration)
}

// CellClass is the outcome of cell-layout discovery for one row.
type CellClass uint8

const (
	// ClassUnknown marks rows the discovery could not classify.
	ClassUnknown CellClass = iota
	// ClassTrue marks rows of true-cells (CHARGED = logical 1).
	ClassTrue
	// ClassAnti marks rows of anti-cells (CHARGED = logical 0).
	ClassAnti
)

func (c CellClass) String() string {
	switch c {
	case ClassTrue:
		return "true"
	case ClassAnti:
		return "anti"
	}
	return "unknown"
}

// RowRef addresses one row of one bank.
type RowRef struct{ Bank, Row int }

// LayoutOptions tunes the discovery experiments of §5.1.1 and §5.1.2.
type LayoutOptions struct {
	// Pause is the refresh pause used to expose retention errors. The
	// paper pauses for 30 minutes at temperatures up to 80 C.
	Pause time.Duration
	// TempC is the ambient temperature for the experiment.
	TempC float64
	// MinErrors is the row error count below which a pattern is considered
	// error-free for classification purposes.
	MinErrors int
}

// DefaultLayoutOptions mirror the paper's §5.1.1 experiment conditions.
func DefaultLayoutOptions() LayoutOptions {
	return LayoutOptions{Pause: 30 * time.Minute, TempC: 80, MinErrors: 8}
}

// DiscoverCellLayout implements §5.1.1: write all-ones and all-zeros test
// patterns, pause refresh, and classify each row by which pattern decays.
// True-cells fail under all-ones (logical 1 = CHARGED), anti-cells under
// all-zeros. The result maps rows to classes indexed [bank][row].
func DiscoverCellLayout(chip Chip, opts LayoutOptions) [][]CellClass {
	chip.SetTemperature(opts.TempC)
	onesErrs := countErrorsUnder(chip, 0xFF, opts.Pause)
	zeroErrs := countErrorsUnder(chip, 0x00, opts.Pause)
	classes := make([][]CellClass, chip.Banks())
	for b := range classes {
		classes[b] = make([]CellClass, chip.Rows())
		for r := range classes[b] {
			e1, e0 := onesErrs[b][r], zeroErrs[b][r]
			switch {
			case e1 >= opts.MinErrors && e1 > 4*e0:
				classes[b][r] = ClassTrue
			case e0 >= opts.MinErrors && e0 > 4*e1:
				classes[b][r] = ClassAnti
			default:
				classes[b][r] = ClassUnknown
			}
		}
	}
	return classes
}

func countErrorsUnder(chip Chip, fill byte, pause time.Duration) [][]int {
	data := make([]byte, chip.DataBytesPerRow())
	for i := range data {
		data[i] = fill
	}
	for b := 0; b < chip.Banks(); b++ {
		for r := 0; r < chip.Rows(); r++ {
			chip.WriteRow(b, r, data)
		}
	}
	chip.PauseRefresh(pause)
	readRow := rowReadFunc(chip)
	errs := make([][]int, chip.Banks())
	for b := range errs {
		errs[b] = make([]int, chip.Rows())
		for r := range errs[b] {
			got := readRow(b, r)
			count := 0
			for o := 0; o < len(got); o += 8 {
				count += bits.OnesCount64(load64(got, o) ^ load64(data, o))
			}
			errs[b][r] = count
		}
	}
	return errs
}

// TrueRows returns the rows classified as true-cells, the regions the paper
// uses for miscorrection-profile collection.
func TrueRows(classes [][]CellClass) []RowRef {
	return rowsOfClass(classes, ClassTrue)
}

// antiRows returns the rows classified as anti-cells, usable for the
// anti-cell profile extension (CollectOptions.Invert).
func antiRows(classes [][]CellClass) []RowRef {
	return rowsOfClass(classes, ClassAnti)
}

func rowsOfClass(classes [][]CellClass, want CellClass) []RowRef {
	var out []RowRef
	for b, rows := range classes {
		for r, cl := range rows {
			if cl == want {
				out = append(out, RowRef{Bank: b, Row: r})
			}
		}
	}
	return out
}

// WordLayout maps a region's data bytes to ECC datawords. Words[w] lists the
// region byte offsets of word w in ascending address order, so dataword bit
// j of word w lives at region byte Words[w][j/8], bit j%8.
type WordLayout struct {
	RegionBytes int
	Words       [][]int
}

// K returns the dataword length in bits implied by the layout.
func (l WordLayout) K() int {
	if len(l.Words) == 0 {
		return 0
	}
	return 8 * len(l.Words[0])
}

// equal reports whether two layouts map region bytes to datawords
// identically. Counts collected under unequal layouts must never merge: the
// same pattern's error counters would refer to different physical bits.
func (l WordLayout) equal(o WordLayout) bool {
	if l.RegionBytes != o.RegionBytes || len(l.Words) != len(o.Words) {
		return false
	}
	for w := range l.Words {
		if len(l.Words[w]) != len(o.Words[w]) {
			return false
		}
		for i := range l.Words[w] {
			if l.Words[w][i] != o.Words[w][i] {
				return false
			}
		}
	}
	return true
}

// DiscoverWordLayout implements §5.1.2: program a single CHARGED cell per
// region at each byte offset in turn, induce uncorrectable errors, and
// observe that miscorrections land only within the same ECC dataword. Byte
// offsets whose errors co-occur belong to one word. rows must be true-cell
// rows (from DiscoverCellLayout).
func DiscoverWordLayout(chip Chip, rows []RowRef, opts LayoutOptions) (WordLayout, error) {
	rb := chip.RegionBytes()
	if rb <= 0 {
		return WordLayout{}, fmt.Errorf("core: chip reports region size %d", rb)
	}
	if len(rows) == 0 {
		return WordLayout{}, fmt.Errorf("core: no true-cell rows to test")
	}
	chip.SetTemperature(opts.TempC)
	parent := make([]int, rb)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	rowBytes := chip.DataBytesPerRow()
	data := make([]byte, rowBytes)
	readRow := rowReadFunc(chip)
	for off := 0; off < rb; off++ {
		// Charge the whole byte at offset `off` in every region of every
		// row. Eight charged cells reach far more error syndromes than one,
		// so miscorrections land throughout the word containing the byte.
		clear(data)
		for base := 0; base+rb <= rowBytes; base += rb {
			data[base+off] = 0xFF
		}
		for _, rr := range rows {
			chip.WriteRow(rr.Bank, rr.Row, data)
		}
		chip.PauseRefresh(opts.Pause)
		// A deviation at byte i means byte i shares an ECC word with the
		// charged byte (either the charged cells decayed or a miscorrection
		// landed there). Requiring several observations rejects sporadic
		// transient errors that would otherwise merge unrelated words.
		cooc := make([]int, rb)
		for _, rr := range rows {
			got := readRow(rr.Bank, rr.Row)
			for o := 0; o < len(got); o += 8 {
				for diff := load64(got, o) ^ load64(data, o); diff != 0; {
					i := bits.TrailingZeros64(diff) / 8
					cooc[(o+i)%rb]++
					diff &^= 0xFF << (8 * i)
				}
			}
		}
		for i, n := range cooc {
			if n >= 3 {
				union(off, i)
			}
		}
	}

	groups := map[int][]int{}
	for off := 0; off < rb; off++ { // ascending, so each group list is sorted
		root := find(off)
		groups[root] = append(groups[root], off)
	}
	layout := WordLayout{RegionBytes: rb}
	// Deterministic order: group containing the lowest offset first.
	taken := make([]bool, rb)
	for off := 0; off < rb; off++ {
		g := groups[find(off)]
		if !taken[g[0]] {
			taken[g[0]] = true
			layout.Words = append(layout.Words, g)
		}
	}
	if len(layout.Words) == 0 {
		return layout, fmt.Errorf("core: word layout discovery found no groups")
	}
	size := len(layout.Words[0])
	for _, g := range layout.Words[1:] {
		if len(g) != size {
			return layout, fmt.Errorf("core: inconsistent word sizes %d vs %d; need longer pauses or more rows",
				size, len(g))
		}
	}
	return layout, nil
}

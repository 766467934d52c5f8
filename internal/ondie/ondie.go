// Package ondie layers on-die ECC onto the raw DRAM substrate, reproducing
// the system model of the paper's Figure 2: the system writes k-bit
// datawords; the chip internally encodes them into n-bit codewords, stores
// them in cells (including hidden parity cells), and silently corrects on
// read using an ECC function the system cannot observe.
//
// The package simulates chips from three manufacturers, A, B and C, matching
// what the paper measures on 80 real LPDDR4 chips (§5.1):
//
//   - Each manufacturer uses a different secret ECC function; chips of the
//     same manufacturer and model use the same function (§5.1.3).
//   - Manufacturers A and B use exclusively true-cells; manufacturer C uses
//     50/50 true-/anti-cells in alternating blocks of 800/824/1224 rows
//     (§5.1.1).
//   - Each contiguous 32B region of the address space holds two 16B ECC
//     datawords interleaved at byte granularity (§5.1.2). For simulated
//     chips with other dataword lengths the same two-way byte interleaving
//     applies to the correspondingly-sized region.
//
// Methods prefixed with GroundTruth expose the chip's hidden internals for
// validation only; the BEER implementation (internal/core) never calls them.
//
// Entry points: New/MustNew build a Chip from a Config (facade:
// repro.SimulatedChip / repro.SimulatedChips); the Chip satisfies
// core.Chip, which is the entire surface BEER may touch. Invariant: chips
// with equal Config (including Seed) are byte-identical forever, and chips
// differing only in Seed share the manufacturer's secret ECC function while
// drawing independent cells — what makes §6.3 multi-chip merging sound.
package ondie

import (
	"fmt"
	mathbits "math/bits"
	"math/rand/v2"
	"time"

	"repro/internal/dram"
	"repro/internal/ecc"
	"repro/internal/gf2"
)

// Manufacturer identifies one of the simulated DRAM vendors.
type Manufacturer string

const (
	// MfrA uses an unstructured (randomly organized) parity-check matrix and
	// all true-cells.
	MfrA Manufacturer = "A"
	// MfrB uses a regularly structured parity-check matrix (sequential
	// syndrome order) and all true-cells.
	MfrB Manufacturer = "B"
	// MfrC uses a low-weight-first syndrome order (minimal XOR gate count)
	// and alternating true-/anti-cell blocks.
	MfrC Manufacturer = "C"
)

// Config describes a simulated on-die-ECC chip.
type Config struct {
	Manufacturer Manufacturer
	// DataBits is the ECC dataword length k; must be a positive multiple
	// of 8. The paper's chips use 128.
	DataBits int
	Banks    int
	Rows     int
	// RegionsPerRow is the number of two-word interleaved regions per row;
	// each region holds 2*DataBits/8 visible bytes.
	RegionsPerRow int
	Seed          uint64
	// Retention overrides the substrate retention model when non-zero.
	Retention dram.RetentionModel
	// TransientBER is passed through to the substrate (see dram.Config).
	TransientBER float64
	// Code overrides the manufacturer's secret ECC function (testing only).
	Code *ecc.Code
	// ScalarECC routes WriteRow/ReadRow through the reference path, which
	// encodes and decodes every word with ecc.Code.Encode/Decode over
	// gf2.Vec values, instead of the packed-column word codec (testing
	// only: determinism tests hold the two paths byte-identical).
	ScalarECC bool
}

// Chip is a DRAM chip with on-die ECC. The system-visible surface is
// WriteRow/ReadRow over data bytes plus refresh and temperature control;
// everything else about the ECC is hidden.
type Chip struct {
	cfg         Config
	sub         *dram.Chip
	code        *ecc.Code // the secret on-die ECC function
	wordsPerRow int
	dataBytes   int // bytes per dataword (k/8)
	// cells is the row's wordsPerRow * n substrate cells, scratch for
	// WriteRow (the codewords) and ReadRowInto (the cells the read
	// flipped). A Chip is stateful and not safe for concurrent use (each
	// parallel shard owns its chips), so one per-chip buffer keeps row
	// writes and reads allocation-free.
	cells gf2.Vec
	// written holds every row's data bytes as last written, row (bank,
	// row) at (bank*Rows+row)*DataBytesPerRow; ReadRowInto decodes from
	// them. Nil under Config.ScalarECC.
	written []byte
}

// New constructs a simulated chip.
func New(cfg Config) (*Chip, error) {
	if cfg.DataBits <= 0 || cfg.DataBits%8 != 0 {
		return nil, fmt.Errorf("ondie: DataBits must be a positive multiple of 8, got %d", cfg.DataBits)
	}
	if cfg.Banks <= 0 || cfg.Rows <= 0 || cfg.RegionsPerRow <= 0 {
		return nil, fmt.Errorf("ondie: invalid geometry %d/%d/%d", cfg.Banks, cfg.Rows, cfg.RegionsPerRow)
	}
	code := cfg.Code
	if code == nil {
		code = secretCode(cfg.Manufacturer, cfg.DataBits, cfg.Seed)
	}
	if code.K() != cfg.DataBits {
		return nil, fmt.Errorf("ondie: code has k=%d, config wants %d", code.K(), cfg.DataBits)
	}
	c := &Chip{
		cfg:         cfg,
		code:        code,
		wordsPerRow: 2 * cfg.RegionsPerRow,
		dataBytes:   cfg.DataBits / 8,
	}
	c.cells = gf2.NewVec(c.wordsPerRow * code.N())
	if !cfg.ScalarECC {
		c.written = make([]byte, cfg.Banks*cfg.Rows*c.DataBytesPerRow())
	}
	c.sub = dram.New(dram.Config{
		Banks:        cfg.Banks,
		Rows:         cfg.Rows,
		CellsPerRow:  c.wordsPerRow * code.N(),
		Seed:         cfg.Seed,
		Layout:       cellLayout(cfg.Manufacturer, cfg.Rows),
		Retention:    cfg.Retention,
		TransientBER: cfg.TransientBER,
	})
	return c, nil
}

// MustNew is New, panicking on error.
func MustNew(cfg Config) *Chip {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// secretCode picks the manufacturer's ECC function. The same manufacturer,
// dataword length and model seed always produce the same function, matching
// the paper's observation that same-model chips share an ECC function.
func secretCode(m Manufacturer, k int, seed uint64) *ecc.Code {
	switch m {
	case MfrB:
		return ecc.SequentialHamming(k)
	case MfrC:
		return ecc.LowWeightHamming(k)
	default: // MfrA and unknown strings: unstructured
		rng := rand.New(rand.NewPCG(0xA11CE, uint64(k)*2654435761))
		return ecc.RandomHamming(k, rng)
	}
}

// cellLayout returns the substrate cell layout for a manufacturer. For
// manufacturer C the paper's block lengths are used when the chip has enough
// rows; smaller simulated chips scale the blocks proportionally so both cell
// types still appear.
func cellLayout(m Manufacturer, rows int) dram.Layout {
	if m != MfrC {
		return dram.AllTrueLayout
	}
	paper := []int{800, 824, 1224}
	total := 800 + 824 + 1224
	if rows >= total {
		return dram.BlockLayout(paper...)
	}
	scaled := make([]int, len(paper))
	for i, l := range paper {
		s := l * rows / total
		if s < 1 {
			s = 1
		}
		scaled[i] = s
	}
	return dram.BlockLayout(scaled...)
}

// Banks returns the number of banks.
func (c *Chip) Banks() int { return c.cfg.Banks }

// Rows returns rows per bank.
func (c *Chip) Rows() int { return c.cfg.Rows }

// DataBytesPerRow returns the system-visible bytes stored in each row.
func (c *Chip) DataBytesPerRow() int { return c.wordsPerRow * c.dataBytes }

// RegionBytes returns the size of one interleaved two-word region (the
// paper's 32B granularity for 16B words).
func (c *Chip) RegionBytes() int { return 2 * c.dataBytes }

// LayoutKey implements core's layoutKeyer extension for discovery caching:
// two freshly-constructed chips with equal keys are bit-identical, so one
// chip's discovered layout stands for every chip sharing the key. A chip
// built with an injected Code override reports no key (opting out of the
// cache) — the override is not captured by the config's value fields.
func (c *Chip) LayoutKey() string {
	if c.cfg.Code != nil {
		return ""
	}
	return fmt.Sprintf("ondie|%s|k=%d|b=%d|r=%d|rpr=%d|seed=%d|ret=%+v|tber=%g|scalar=%t",
		c.cfg.Manufacturer, c.cfg.DataBits, c.cfg.Banks, c.cfg.Rows, c.cfg.RegionsPerRow,
		c.cfg.Seed, c.cfg.Retention, c.cfg.TransientBER, c.cfg.ScalarECC)
}

// SetTemperature sets the ambient temperature for retention behavior.
func (c *Chip) SetTemperature(celsius float64) { c.sub.SetTemperature(celsius) }

// PauseRefresh disables refresh for the given duration, letting charged
// cells decay (the paper's mechanism for inducing uncorrectable errors).
func (c *Chip) PauseRefresh(d time.Duration) { c.sub.PauseRefresh(d) }

// wordBit maps (word, bit-in-codeword) to the substrate cell index.
func (c *Chip) wordBit(word, bit int) int { return word*c.code.N() + bit }

// writtenRow returns row (bank, row)'s data bytes as last written.
func (c *Chip) writtenRow(bank, row int) []byte {
	rb := c.DataBytesPerRow()
	i := (bank*c.cfg.Rows + row) * rb
	return c.written[i : i+rb]
}

// wordBase returns the row byte offset of word w's first data byte: region
// w/2, interleaving phase w%2 (its byte b sits at wordBase(w)+2*b).
func (c *Chip) wordBase(w int) int { return (w/2)*c.RegionBytes() + w%2 }

// WriteRow encodes and stores a full row of data bytes.
// len(data) must equal DataBytesPerRow.
//
// Words are encoded one at a time into a per-chip cell buffer, with no
// allocation per write. The code is systematic (codeword bit i < k is data
// bit i), so data bytes go straight to their cells, and the parity bits are
// the XOR of the H columns of the set data bits. The data bytes are kept
// for ReadRowInto.
func (c *Chip) WriteRow(bank, row int, data []byte) {
	if len(data) != c.DataBytesPerRow() {
		panic(fmt.Sprintf("ondie: WriteRow got %d bytes, want %d", len(data), c.DataBytesPerRow()))
	}
	if c.cfg.ScalarECC {
		c.writeRowScalar(bank, row, data)
		return
	}
	k := c.code.K()
	bc := c.code.Bitsliced()
	cellw := c.cells.Words()
	clear(cellw)
	for w := 0; w < c.wordsPerRow; w++ {
		base, cell := c.wordBase(w), c.wordBit(w, 0)
		var parity uint64
		for off := 0; off < k; off += 64 {
			var v uint64 // data bits off .. off+63
			for b := min(k, off+64)/8 - 1; b >= off/8; b-- {
				v = v<<8 | uint64(data[base+2*b])
			}
			orBitsAt(cellw, cell+off, v)
			for ; v != 0; v &= v - 1 {
				parity ^= bc.Column(off + mathbits.TrailingZeros64(v))
			}
		}
		orBitsAt(cellw, cell+k, parity)
	}
	c.sub.WriteRow(bank, row, c.cells)
	copy(c.writtenRow(bank, row), data)
}

// writeRowScalar is the per-word reference path behind Config.ScalarECC.
func (c *Chip) writeRowScalar(bank, row int, data []byte) {
	cells := gf2.NewVec(c.wordsPerRow * c.code.N())
	for w := 0; w < c.wordsPerRow; w++ {
		d := c.datawordOf(data, w)
		cw := c.code.Encode(d)
		for bit := 0; bit < c.code.N(); bit++ {
			if cw.Get(bit) {
				cells.Set(c.wordBit(w, bit), true)
			}
		}
	}
	c.sub.WriteRow(bank, row, cells)
}

// ReadRow reads, ECC-decodes, and de-interleaves a full row. Only the
// returned byte slice is allocated. Collection loops that read millions of
// rows should use ReadRowInto with a reused buffer instead.
func (c *Chip) ReadRow(bank, row int) []byte {
	return c.ReadRowInto(bank, row, make([]byte, c.DataBytesPerRow()))
}

// ReadRowInto is ReadRow writing into caller-owned storage: data must have
// length DataBytesPerRow, is fully overwritten, and is returned. With a
// reused buffer a read allocates nothing.
//
// Every stored row is the encoding of the bytes last written (ondie never
// refreshes its substrate), so a word's syndrome is the XOR of the H
// columns of the cells the read flipped. The read starts from the written
// bytes, walks the substrate's flipped cells in order, flips the data bits
// among them and accumulates each touched word's syndrome; a nonzero
// syndrome then blindly flips the bit whose column it equals (none for an
// unmatched syndrome of a shortened code), exactly as ecc.Code.Decode does.
func (c *Chip) ReadRowInto(bank, row int, data []byte) []byte {
	if len(data) != c.DataBytesPerRow() {
		panic(fmt.Sprintf("ondie: ReadRowInto buffer length %d, row holds %d bytes",
			len(data), c.DataBytesPerRow()))
	}
	if c.cfg.ScalarECC {
		copy(data, c.readRowScalar(bank, row))
		return data
	}
	flips := c.sub.ReadRowFlipsInto(bank, row, c.cells).Words()
	copy(data, c.writtenRow(bank, row))
	n, k := c.code.N(), c.code.K()
	bc := c.code.Bitsliced()
	// Word w holds cells end-n .. end-1 and its data bytes from base on.
	w, end, base := 0, n, 0
	var synd uint64
	for i, fw := range flips {
		for ; fw != 0; fw &= fw - 1 {
			p := i<<6 | mathbits.TrailingZeros64(fw)
			if p >= end {
				c.correct(data, base, synd)
				synd = 0
				for p >= end {
					w++
					end += n
				}
				base = c.wordBase(w)
			}
			bit := p - (end - n)
			synd ^= bc.Column(bit)
			if bit < k {
				data[base+2*(bit>>3)] ^= 1 << uint(bit&7)
			}
		}
	}
	c.correct(data, base, synd)
	return data
}

// correct flips the data bit that a word's nonzero syndrome names; base is
// the word's first data byte (see wordBase).
func (c *Chip) correct(data []byte, base int, synd uint64) {
	if synd == 0 {
		return
	}
	if j := c.code.ColumnOfPackedSyndrome(synd); uint(j) < uint(c.code.K()) { // j = -1: no match
		data[base+2*(j/8)] ^= 1 << uint(j%8)
	}
}

// orBitsAt ORs v into w starting at bit p, lowest bit first.
func orBitsAt(w []uint64, p int, v uint64) {
	i, s := p>>6, uint(p&63)
	w[i] |= v << s
	if s != 0 && v>>(64-s) != 0 {
		w[i+1] |= v >> (64 - s)
	}
}

// readRowScalar is the per-word reference path behind Config.ScalarECC.
func (c *Chip) readRowScalar(bank, row int) []byte {
	cells := c.sub.ReadRow(bank, row)
	data := make([]byte, c.DataBytesPerRow())
	for w := 0; w < c.wordsPerRow; w++ {
		cw := cells.Slice(w*c.code.N(), (w+1)*c.code.N())
		res := c.code.Decode(cw)
		c.storeDataword(data, w, res.Data)
	}
	return data
}

// datawordOf extracts word w's dataword bits from a row's data bytes,
// applying the two-way byte interleaving: region byte i belongs to word
// (i % 2), byte (i / 2).
func (c *Chip) datawordOf(data []byte, w int) gf2.Vec {
	d := gf2.NewVec(c.cfg.DataBits)
	region := w / 2
	phase := w % 2
	base := region * c.RegionBytes()
	for b := 0; b < c.dataBytes; b++ {
		by := data[base+2*b+phase]
		for bit := 0; bit < 8; bit++ {
			if by>>uint(bit)&1 == 1 {
				d.Set(8*b+bit, true)
			}
		}
	}
	return d
}

// storeDataword writes word w's dataword bits back into the row bytes.
func (c *Chip) storeDataword(data []byte, w int, d gf2.Vec) {
	region := w / 2
	phase := w % 2
	base := region * c.RegionBytes()
	for b := 0; b < c.dataBytes; b++ {
		var by byte
		for bit := 0; bit < 8; bit++ {
			if d.Get(8*b + bit) {
				by |= 1 << uint(bit)
			}
		}
		data[base+2*b+phase] = by
	}
}

// GroundTruthCode returns the chip's secret ECC function. Validation only:
// in a real chip this is exactly the information BEER exists to recover.
func (c *Chip) GroundTruthCode() *ecc.Code { return c.code }

// GroundTruthCellType returns the actual cell type of a row. Validation
// only; the BEER flow rediscovers this via §5.1.1.
func (c *Chip) GroundTruthCellType(bank, row int) dram.CellType {
	return c.sub.CellTypeOf(bank, row)
}

// GroundTruthWordOfRegionByte returns (word, byteInWord) for a region byte
// offset. Validation only; the BEER flow rediscovers the layout via §5.1.2.
func (c *Chip) GroundTruthWordOfRegionByte(offset int) (word, byteInWord int) {
	return offset % 2, offset / 2
}

// GroundTruthWeakCells returns the codeword bit positions within one ECC
// word whose cells decay within the given refresh pause (at the retention
// model's reference temperature). Validation only: this is exactly what BEEP
// recovers through the data interface.
func (c *Chip) GroundTruthWeakCells(bank, row, word int, window time.Duration) []int {
	var weak []int
	for bit := 0; bit < c.code.N(); bit++ {
		cell := c.wordBit(word, bit)
		if c.sub.RetentionSecondsOf(bank, row, cell) < window.Seconds() {
			weak = append(weak, bit)
		}
	}
	return weak
}

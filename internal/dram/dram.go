// Package dram simulates the raw DRAM substrate the BEER methodology runs
// against: a chip of banks x rows of storage cells whose charge decays over
// time when refresh is paused.
//
// The simulation implements exactly the data-retention error properties the
// paper relies on (§3.2):
//
//  1. Errors are induced and controlled by manipulating the refresh window
//     and ambient temperature (PauseRefresh / SetTemperature).
//  2. Errors are repeatable — each cell has a fixed retention time drawn
//     deterministically from a log-normal distribution keyed by its address —
//     and spatially uniform-random, because the draw is an avalanche hash of
//     the address.
//  3. Errors are unidirectional: only a CHARGED cell can decay, to the
//     DISCHARGED state.
//
// Cells store *charge*; the mapping between charge and logical bit value is
// the cell's encoding convention: a true-cell stores '1' as CHARGED, an
// anti-cell stores '1' as DISCHARGED (§3.1). Real chips mix both; the layout
// is configurable per row to reproduce the per-manufacturer layouts the paper
// measures in §5.1.1.
//
// Fidelity note (see DESIGN.md): the default retention-time distribution is
// compressed relative to a real LPDDR4 chip so that minute-scale refresh
// pauses span raw bit error rates from ~1e-7 up to ~2e-1. A real chip offers
// millions of ECC words, so rare error patterns are still observed; a
// simulated chip offers thousands, so the tail mass is raised to keep the
// same coverage. All of the properties above are preserved.
//
// Entry point: New builds a Chip from a Config (rows, layout, seed);
// internal/ondie layers the secret ECC on top and is what experiments
// actually talk to. Determinism invariant: two chips built from equal
// configs exhibit identical cell retention times forever — the substrate
// carries no global RNG state.
//
// Per cell, a row stores its charge and, once it first decays, its 4-bit
// retention level: the top bits of the cell's address hash, kept as four
// bit planes (see levelWord). A shared per-retention-model grid brackets
// retention time and VRT jitter in the hash domain (see retGrid), so a
// read turns its exposure into two level thresholds and decides the
// charged cells of whole words by a bit-sliced compare against the planes:
// those whose level decays for every reachable jitter are marked at once,
// those whose level survives it are skipped, and only the cells in the
// band between are hashed. Of those, most are still decided by two integer
// compares; the exact Erfinv/Exp evaluation runs only where a bracket
// straddles the decay threshold. Every verdict is bit-identical to
// evaluating the cell's jittered retention time directly.
package dram

import (
	"fmt"
	"math"
	mathbits "math/bits"
	"sort"
	"sync"
	"time"

	"repro/internal/gf2"
	"repro/internal/stats"
)

// CellType is a cell's charge-encoding convention.
type CellType uint8

const (
	// TrueCell encodes logical '1' as a charged capacitor.
	TrueCell CellType = iota
	// AntiCell encodes logical '1' as a discharged capacitor.
	AntiCell
)

func (t CellType) String() string {
	if t == TrueCell {
		return "true"
	}
	return "anti"
}

// RetentionModel describes the per-cell retention-time distribution and its
// temperature dependence.
type RetentionModel struct {
	// MuLog and SigmaLog parameterize ln(retention seconds) ~ N(MuLog,
	// SigmaLog) at ReferenceTempC.
	MuLog    float64
	SigmaLog float64
	// ReferenceTempC is the temperature at which MuLog/SigmaLog apply.
	ReferenceTempC float64
	// HalvingCelsius: retention time halves for every this many degrees
	// above the reference temperature (exponential temperature dependence,
	// as in the retention studies the paper builds on).
	HalvingCelsius float64
	// VRTSigmaLog adds per-read log-normal jitter to each cell's effective
	// retention threshold, modeling variable retention time. Zero disables.
	VRTSigmaLog float64
}

// DefaultRetention returns the model used by the simulated chips: tuned so a
// sweep of tREFw from 2 to 30 minutes at 80 degrees C spans BER ~1e-7 to
// ~2e-1 (compressed from real-chip scale; see the package comment).
func DefaultRetention() RetentionModel {
	return RetentionModel{
		MuLog:          8.017, // median retention ~50 minutes at 80C
		SigmaLog:       0.621,
		ReferenceTempC: 80,
		HalvingCelsius: 10,
		VRTSigmaLog:    0.02,
	}
}

// tempFactor returns the retention-time scale factor at the given
// temperature: times shrink as temperature rises.
func (m RetentionModel) tempFactor(tempC float64) float64 {
	return math.Exp2((m.ReferenceTempC - tempC) / m.HalvingCelsius)
}

// cellRetentionSeconds returns the cell's fixed retention time at the
// reference temperature, derived deterministically from the hash h.
func (m RetentionModel) cellRetentionSeconds(h uint64) float64 {
	return stats.LogNormal(stats.Uniform01(h), m.MuLog, m.SigmaLog)
}

// FailureProbability returns the probability that a randomly chosen charged
// cell decays within the given window at the given temperature — the
// analytic raw bit error rate used for experiment planning (§6.3).
func (m RetentionModel) FailureProbability(window time.Duration, tempC float64) float64 {
	eff := window.Seconds() / m.tempFactor(tempC)
	return stats.LogNormalCDF(eff, m.MuLog, m.SigmaLog)
}

// Layout assigns a cell type to each row.
type Layout func(bank, row int) CellType

// AllTrueLayout is the layout of manufacturers A and B in the paper: every
// cell is a true-cell.
func AllTrueLayout(bank, row int) CellType { return TrueCell }

// BlockLayout reproduces manufacturer C's measured layout: alternating
// true-/anti-cell blocks whose lengths cycle through the given sizes
// (the paper reports blocks of 800, 824 and 1224 rows).
func BlockLayout(blockLens ...int) Layout {
	if len(blockLens) == 0 {
		panic("dram: BlockLayout needs at least one block length")
	}
	total := 0
	for _, l := range blockLens {
		if l <= 0 {
			panic("dram: block lengths must be positive")
		}
		total += l
	}
	// One full cycle through blockLens covers `total` rows with alternating
	// types; two cycles restore the starting type when len(blockLens) is odd.
	return func(bank, row int) CellType {
		r := row % (2 * total)
		typ := TrueCell
		for {
			for _, l := range blockLens {
				if r < l {
					return typ
				}
				r -= l
				typ ^= 1
			}
		}
	}
}

// Config describes a simulated chip.
type Config struct {
	Banks       int
	Rows        int
	CellsPerRow int
	Seed        uint64
	Layout      Layout
	Retention   RetentionModel
	// TransientBER is the per-cell, per-read probability of an unrelated
	// transient bit flip (soft errors, voltage noise — §5.2). These flips are
	// not sticky and occur in either direction.
	TransientBER float64
}

// Chip is a simulated DRAM chip storing raw cells. It has no ECC; package
// ondie layers on-die ECC on top.
type Chip struct {
	cfg   Config
	tempC float64
	// thermalSeconds is the accumulated refresh-paused time, scaled to
	// reference-temperature seconds. It only advances during PauseRefresh,
	// which makes decay windows per row simply the difference between the
	// current value and the value at the row's last write.
	thermalSeconds float64
	rows           [][]rowState
	// readCounter numbers the reads; it keys each read's VRT jitter draw.
	readCounter uint64
	// grid is the retention model's shared hash-domain bracket table, bound
	// on the first decaying read or refresh (see retGrid), so building a
	// chip costs nothing and a process that never decays a row never builds
	// one.
	grid *retGrid
	// band memoizes the last read's band limits (see bandOf): a collection
	// pass reads every row at one exposure.
	band band
}

// band is a read's decay band at one exposure, with or without jitter: a
// cell hashed to grid cell gi decays for every reachable jitter when
// gi < dies, survives every reachable jitter when gi >= lives, and needs
// its own verdict in between. dl and ll bound the band by level: a cell
// whose level is below dl has gi < dies, one whose level is not below ll
// has gi >= lives.
type band struct {
	exposure    float64
	jitter      bool
	dies, lives uint64
	dl, ll      levelMask
}

type rowState struct {
	written bool
	charges gf2.Vec
	// writeStamp is the chip's thermalSeconds at the time of the write.
	writeStamp float64
	// levels holds the row's retention levels, one levelWord per word of
	// charges. It depends only on the cells' addresses, so it is built on
	// the row's first decay and kept across writes.
	levels []levelWord
}

// levelBits is log2 of the number of retention levels. A cell's level is
// the top levelBits bits of its address hash: its grid cell's index
// shifted right by levelShift.
const (
	levelBits  = 4
	levelShift = gridBits - levelBits
)

// levelWord holds the levels of one word of a row's cells as bit planes:
// bit i of plane p is bit p of cell i's level.
type levelWord [levelBits]uint64

// levelMask is a level threshold t in [0, 1<<levelBits], spread for a
// bit-sliced compare: bit p is all ones when t has bit p set, and top is
// all ones when t is 1<<levelBits, above every level.
type levelMask struct {
	b0, b1, b2, b3, top uint64
}

func newLevelMask(t uint64) levelMask {
	return levelMask{b0: -(t & 1), b1: -(t >> 1 & 1), b2: -(t >> 2 & 1), b3: -(t >> 3 & 1), top: -(t >> levelBits & 1)}
}

// below returns the cells of a word whose level is below the threshold,
// branch-free: from the low bit up, a cell is below t if its bit is clear
// where t's is set, or the bits are equal and it was below t so far.
func (m *levelMask) below(x *levelWord) uint64 {
	lt := m.b0 &^ x[0]
	lt = (lt | m.b1&^x[1]) &^ (x[1] &^ m.b1)
	lt = (lt | m.b2&^x[2]) &^ (x[2] &^ m.b2)
	lt = (lt | m.b3&^x[3]) &^ (x[3] &^ m.b3)
	return lt | m.top
}

// gridBits is log2 of the retGrid size: a cell hash h falls in grid cell
// h >> (64 - gridBits), its top bits.
const gridBits = 12

// gridGuard widens every retGrid bracket by this relative margin. Hash-to-
// retention and hash-to-jitter are monotone in h mathematically; the
// computed Erfinv/Exp chain is monotone only to within a few ulps (~1e-15
// relative), so a far larger guard makes each bracket hold every hash in
// its grid cell (TestRetGridBrackets checks this for every cell).
const gridGuard = 1e-9

// retGrid brackets a retention model in the hash domain. Grid cell g holds
// every hash whose top gridBits bits equal g; retLo/retHi bound
// cellRetentionSeconds and fLo/fHi bound jitterFactor over those hashes,
// because both are monotone in the hash and the bounds are the values at
// the cell's two end hashes, widened by gridGuard. A read then decides
// almost every charged cell from one hash and two integer compares (see
// decay), and evaluates the exact Erfinv/Exp chain only when a bracket
// straddles the exposure. vrtLo/vrtHi, the minimum fLo and maximum fHi over
// the grid, bracket jitterFactor for every hash.
type retGrid struct {
	retLo, retHi [1 << gridBits]float64
	fLo, fHi     [1 << gridBits]float64
	vrtLo, vrtHi float64
}

func newRetGrid(m RetentionModel) *retGrid {
	g := &retGrid{vrtLo: math.Inf(1), vrtHi: math.Inf(-1)}
	for i := range g.retLo {
		lo := uint64(i) << (64 - gridBits)
		hi := lo | (1<<(64-gridBits) - 1)
		g.retLo[i] = m.cellRetentionSeconds(lo) * (1 - gridGuard)
		g.retHi[i] = m.cellRetentionSeconds(hi) * (1 + gridGuard)
		g.fLo[i] = m.jitterFactor(lo) * (1 - gridGuard)
		g.fHi[i] = m.jitterFactor(hi) * (1 + gridGuard)
		g.vrtLo = min(g.vrtLo, g.fLo[i])
		g.vrtHi = max(g.vrtHi, g.fHi[i])
	}
	// Monotone envelopes: widening a bracket keeps it sound, and
	// non-decreasing bounds let a read turn its band limits into two grid
	// cell thresholds (see decay).
	for i := 1; i < len(g.retHi); i++ {
		g.retHi[i] = max(g.retHi[i], g.retHi[i-1])
	}
	for i := len(g.retLo) - 2; i >= 0; i-- {
		g.retLo[i] = min(g.retLo[i], g.retLo[i+1])
	}
	return g
}

// jitterFactor is the VRT scale a read applies to a cell's retention time,
// for the read's jitter hash h2: exp(VRTSigmaLog * NormalInv(Uniform01(h2))).
func (m RetentionModel) jitterFactor(h2 uint64) float64 {
	return math.Exp(m.VRTSigmaLog * stats.NormalInv(stats.Uniform01(h2)))
}

// maxGrids bounds the process-wide grid set. Building a grid takes under a
// millisecond and simulations use a handful of retention models, so the
// bound only keeps a workload that sweeps models (a fuzzer) from holding
// one 128 KiB grid per model; an evicted grid is rebuilt on demand.
const maxGrids = 16

var (
	gridsMu sync.Mutex
	grids   = make(map[RetentionModel]*retGrid)
)

func sharedGrid(m RetentionModel) *retGrid {
	gridsMu.Lock()
	defer gridsMu.Unlock()
	if g, ok := grids[m]; ok {
		return g
	}
	if len(grids) >= maxGrids {
		for k := range grids {
			delete(grids, k)
			break
		}
	}
	g := newRetGrid(m)
	grids[m] = g
	return g
}

// New constructs a chip. Zero-valued retention fields fall back to
// DefaultRetention, and a nil layout to AllTrueLayout.
func New(cfg Config) *Chip {
	if cfg.Banks <= 0 || cfg.Rows <= 0 || cfg.CellsPerRow <= 0 {
		panic(fmt.Sprintf("dram: invalid geometry %d banks x %d rows x %d cells",
			cfg.Banks, cfg.Rows, cfg.CellsPerRow))
	}
	if cfg.Layout == nil {
		cfg.Layout = AllTrueLayout
	}
	if cfg.Retention == (RetentionModel{}) {
		cfg.Retention = DefaultRetention()
	}
	c := &Chip{cfg: cfg, tempC: cfg.Retention.ReferenceTempC}
	c.rows = make([][]rowState, cfg.Banks)
	for b := range c.rows {
		c.rows[b] = make([]rowState, cfg.Rows)
	}
	return c
}

// SetTemperature sets the ambient temperature in Celsius for subsequent
// refresh pauses.
func (c *Chip) SetTemperature(celsius float64) { c.tempC = celsius }

// PauseRefresh simulates disabling DRAM refresh for the given duration at
// the current temperature: every written row accumulates decay exposure.
// With refresh running (i.e. outside PauseRefresh) retention times are
// vastly longer than the refresh window, so no decay accumulates.
func (c *Chip) PauseRefresh(d time.Duration) {
	if d < 0 {
		panic("dram: negative pause")
	}
	c.thermalSeconds += d.Seconds() / c.cfg.Retention.tempFactor(c.tempC)
}

func (c *Chip) rowAt(bank, row int) *rowState {
	if bank < 0 || bank >= c.cfg.Banks || row < 0 || row >= c.cfg.Rows {
		panic(fmt.Sprintf("dram: address (%d,%d) out of range", bank, row))
	}
	return &c.rows[bank][row]
}

// CellTypeOf reports the encoding convention of the cells in a row. The BEER
// flow does not use this directly — it rediscovers the layout from error
// behavior (§5.1.1) — but validation code and package ondie may.
func (c *Chip) CellTypeOf(bank, row int) CellType { return c.cfg.Layout(bank, row) }

// WriteRow stores logical bits into the row, converting to charges per the
// row's cell type, and resets the row's decay exposure (a write fully
// restores charge, like a refresh does).
func (c *Chip) WriteRow(bank, row int, bits gf2.Vec) {
	if bits.Len() != c.cfg.CellsPerRow {
		panic(fmt.Sprintf("dram: WriteRow got %d bits, row holds %d cells", bits.Len(), c.cfg.CellsPerRow))
	}
	st := c.rowAt(bank, row)
	if st.written && st.charges.Len() == bits.Len() {
		st.charges.CopyFrom(bits) // reuse the row's storage across rewrites
	} else {
		st.charges = bits.Clone()
	}
	if c.cfg.Layout(bank, row) == AntiCell {
		invert(st.charges)
	}
	st.written = true
	st.writeStamp = c.thermalSeconds
}

// ReadRow senses the row's cells, applying any retention decay accumulated
// since the last write, plus transient read noise, and converts charges back
// to logical bits. Reading an unwritten row panics: real cells power up in an
// undefined state, and the methodology never reads before writing.
func (c *Chip) ReadRow(bank, row int) gf2.Vec {
	return c.readRowInto(bank, row, gf2.NewVec(c.cfg.CellsPerRow))
}

// readRowInto is ReadRow writing into caller-owned storage: dst must have
// length CellsPerRow and is returned for convenience. Repeated reads through
// a reused dst allocate nothing, which is what makes tight read loops
// (profile collection, BEEP) memory-bound no longer.
func (c *Chip) readRowInto(bank, row int, dst gf2.Vec) gf2.Vec {
	st := c.readable(bank, row, dst)
	// Marking a lost cell in a copy of the charges discharges it.
	dst.CopyFrom(st.charges)
	c.decay(dst.Words(), st, bank, row, true)
	if c.cfg.Layout(bank, row) == AntiCell {
		invert(dst)
	}
	if c.cfg.TransientBER > 0 {
		c.injectTransient(dst, bank, row)
	}
	return dst
}

// ReadRowFlipsInto senses the row like readRowInto but returns, in dst, the
// cells whose read differs from the logical bits last written: the cells
// this read's decay discharged since the write plus its transient flips.
// XORed into the written bits it gives exactly what readRowInto would have
// returned for the same read; it advances the read counter the same way. dst must have length CellsPerRow.
//
// A discharged cell flips its logical bit under either cell type, so the
// flip set needs no inversion, and a row whose cells all hold their charge
// reads as an all-zero dst.
func (c *Chip) ReadRowFlipsInto(bank, row int, dst gf2.Vec) gf2.Vec {
	st := c.readable(bank, row, dst)
	clear(dst.Words())
	c.decay(dst.Words(), st, bank, row, true)
	if c.cfg.TransientBER > 0 {
		c.injectTransient(dst, bank, row)
	}
	return dst
}

// readable checks a read of (bank, row) into dst and counts it: it returns
// the row's state after advancing readCounter, which keys the read's VRT
// jitter and transient noise.
func (c *Chip) readable(bank, row int, dst gf2.Vec) *rowState {
	if dst.Len() != c.cfg.CellsPerRow {
		panic(fmt.Sprintf("dram: read into %d bits, row holds %d cells", dst.Len(), c.cfg.CellsPerRow))
	}
	st := c.rowAt(bank, row)
	if !st.written {
		panic(fmt.Sprintf("dram: ReadRow of never-written row (%d,%d)", bank, row))
	}
	c.readCounter++
	return st
}

// injectTransient flips each bit independently with probability
// cfg.TransientBER, deterministically keyed by the read counter.
func (c *Chip) injectTransient(bits gf2.Vec, bank, row int) {
	// Sampling every cell would dominate runtime at BERs like 1e-7, so skip
	// ahead geometrically: with probability p per cell, the gap to the next
	// flip is ~ Geometric(p).
	p := c.cfg.TransientBER
	n := bits.Len()
	pos := 0
	for draw := 0; ; draw++ {
		h := stats.HashN(c.cfg.Seed^0xabcdef, uint64(bank), uint64(row), c.readCounter, uint64(draw))
		u := stats.Uniform01(h)
		gap := int(math.Ceil(math.Log(u) / math.Log(1-p)))
		if gap < 1 {
			gap = 1
		}
		pos += gap
		if pos > n {
			return
		}
		bits.Flip(pos - 1)
	}
}

// RetentionSecondsOf returns a cell's fixed retention time in seconds at the
// reference temperature. Ground-truth accessor for validation: real chips do
// not expose per-cell retention, which is why profiling methodologies like
// REAPER and BEEP exist.
func (c *Chip) RetentionSecondsOf(bank, row, cell int) float64 {
	h := stats.HashN(c.cfg.Seed, uint64(bank), uint64(row), uint64(cell))
	return c.cfg.Retention.cellRetentionSeconds(h)
}

// decay is the one decay kernel: it marks, by flipping its bit in mark,
// every charged cell of row (bank, row) that loses its charge over the
// exposure since st's write stamp, and leaves every other bit of mark as
// it is. A mark in a copy of the charges discharges the cell; a mark in a
// vector holding no charged cell adds it to the lost set. It marks nothing
// at zero exposure. With jitter, each verdict includes the read's VRT draw
// keyed by readCounter, as a read sees it; without, it is the plain rule
// retention < exposure.
//
// Each verdict equals the exact expression
//
//	cellRetentionSeconds(h) * jitterFactor(HashN(h, readCounter)) < exposure
//
// bit for bit: the grid brackets (see retGrid) bound both factors, and IEEE
// multiplication is monotone in each positive argument, so a bracket that
// lies wholly on one side of the exposure decides the exact product too.
// The band limits, turned into level thresholds, decide whole words of
// cells at once; only the charged cells between them are hashed, and only
// straddling brackets evaluate the exact expression.
func (c *Chip) decay(mark []uint64, st *rowState, bank, row int, jitter bool) {
	exposure := c.thermalSeconds - st.writeStamp
	if exposure <= 0 {
		return
	}
	if c.grid == nil {
		c.grid = sharedGrid(c.cfg.Retention)
	}
	g, m := c.grid, c.cfg.Retention
	jitter = jitter && m.VRTSigmaLog > 0
	b := c.bandOf(exposure, jitter)
	dies, lives := b.dies, b.lives
	// HashN(seed, bank, row, i) == SplitMix64(HashN(seed, bank, row) ^ i).
	prefix := stats.HashN(c.cfg.Seed, uint64(bank), uint64(row))
	if st.levels == nil {
		c.buildLevels(st, prefix)
	}
	levels := st.levels
	for wi, w := range st.charges.Words() {
		if w == 0 {
			continue
		}
		x := &levels[wi]
		def := b.dl.below(x)
		mark[wi] ^= w & def
		for w &= b.ll.below(x) &^ def; w != 0; w &= w - 1 {
			bit := mathbits.TrailingZeros64(w)
			h := stats.SplitMix64(prefix ^ uint64(wi<<6|bit))
			gi := h >> (64 - gridBits)
			switch {
			case gi < dies:
			case gi >= lives:
				continue
			case !jitter:
				if m.cellRetentionSeconds(h) >= exposure {
					continue
				}
			default:
				h2 := stats.HashN(h, c.readCounter)
				gj := h2 >> (64 - gridBits)
				switch {
				case g.retHi[gi]*g.fHi[gj] < exposure:
				case g.retLo[gi]*g.fLo[gj] >= exposure:
					continue
				case m.cellRetentionSeconds(h)*m.jitterFactor(h2) >= exposure:
					continue
				}
			}
			mark[wi] ^= 1 << uint(bit)
		}
	}
}

// bandOf returns the read's band at the exposure (retHi and retLo are
// non-decreasing, so dies is the first grid cell with retHi*hi >= exposure
// and lives the first with retLo*lo >= exposure). The last exposure's band
// is kept, so a pass that reads every row at one exposure searches the
// grid once.
func (c *Chip) bandOf(exposure float64, jitter bool) *band {
	b := &c.band
	if b.exposure == exposure && b.jitter == jitter {
		return b
	}
	g := c.grid
	lo, hi := 1.0, 1.0
	if jitter {
		lo, hi = g.vrtLo, g.vrtHi
	}
	b.exposure, b.jitter = exposure, jitter
	b.dies = uint64(sort.Search(len(g.retHi), func(i int) bool { return g.retHi[i]*hi >= exposure }))
	b.lives = uint64(sort.Search(len(g.retLo), func(i int) bool { return g.retLo[i]*lo >= exposure }))
	b.dl = newLevelMask(b.dies >> levelShift)
	b.ll = newLevelMask((b.lives + 1<<levelShift - 1) >> levelShift)
	return b
}

// buildLevels fills in the row's level planes from the row's hash prefix.
// Bits past CellsPerRow stay zero.
func (c *Chip) buildLevels(st *rowState, prefix uint64) {
	st.levels = make([]levelWord, len(st.charges.Words()))
	for i := range c.cfg.CellsPerRow {
		lv := stats.SplitMix64(prefix^uint64(i)) >> (64 - levelBits)
		x := &st.levels[i>>6]
		for p := range x {
			x[p] |= lv >> p & 1 << (i & 63)
		}
	}
}

func invert(v gf2.Vec) {
	w := v.Words()
	for i := range w {
		w[i] = ^w[i]
	}
	if r := v.Len() % 64; r != 0 && len(w) > 0 {
		w[len(w)-1] &= 1<<uint(r) - 1
	}
}

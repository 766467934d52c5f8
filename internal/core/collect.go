package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/gf2"
)

// CollectOptions tunes miscorrection-profile collection (§5.1.3).
type CollectOptions struct {
	// Windows are the refresh pauses to sweep. The paper uses 2 to 22
	// minutes in 1-minute steps at 80 C: short windows catch high-retention
	// behavior, long windows expose nearly every word to uncorrectable
	// errors.
	Windows []time.Duration
	// TempC is the ambient temperature for the sweep.
	TempC float64
	// Rounds repeats the whole window sweep with rotated pattern-to-word
	// assignments. Because each cell's retention time is fixed, rotating
	// assignments is what samples each pattern across many independent
	// cells (the paper gets this for free from millions of words).
	Rounds int
	// Invert targets anti-cell rows (extension; see Entry.Anti): the rows
	// passed to CollectCounts must then be anti-cell rows, patterns are
	// written bitwise-complemented so the intended cells are CHARGED, and
	// the resulting count entries are flagged Anti.
	Invert bool
	// Progress, when set, receives a StageCollect event after every
	// completed (round, window) pass. Event.Chip is always 0 here;
	// Recover wraps the func to stamp the chip index.
	Progress ProgressFunc
}

// DefaultCollectOptions mirror §5.1.3: tREFw from 2 to 22 minutes in
// 1-minute steps at 80 C.
func DefaultCollectOptions() CollectOptions {
	opts := CollectOptions{TempC: 80, Rounds: 4}
	for m := 2; m <= 22; m++ {
		opts.Windows = append(opts.Windows, time.Duration(m)*time.Minute)
	}
	return opts
}

// sweepPasses returns how many (round, window) collection passes a sweep
// performs — the Passes total its progress events report.
func sweepPasses(opts CollectOptions) int {
	rounds := opts.Rounds
	if rounds <= 0 {
		rounds = 1
	}
	return rounds * len(opts.Windows)
}

// Counts holds raw post-correction error observations per pattern and bit,
// before threshold filtering (the data behind the paper's Figures 3 and 4).
type Counts struct {
	K       int
	Entries []CountEntry
}

// CountEntry is the observation record for one test pattern.
type CountEntry struct {
	Pattern Pattern
	// Errors[b] counts reads where data bit b differed from the written
	// pattern. At DISCHARGED positions these are miscorrections; at CHARGED
	// positions they are ambiguous (retention error or miscorrection).
	Errors []int64
	// Words counts pattern-word reads contributing to Errors.
	Words int64
	// Anti marks observations from anti-cell rows (see CollectOptions.Invert).
	Anti bool
}

// Merge adds another collection's observations into c, enabling the paper's
// §6.3 parallelization across chips of the same model: counts gathered from
// several chips (or banks) of the same design simply add. Entry lists must
// align (same patterns, same polarity, same order).
func (c *Counts) Merge(o *Counts) error {
	if c.K != o.K || len(c.Entries) != len(o.Entries) {
		return fmt.Errorf("core: merging incompatible counts (k=%d/%d, entries=%d/%d)",
			c.K, o.K, len(c.Entries), len(o.Entries))
	}
	for i := range c.Entries {
		a, b := &c.Entries[i], &o.Entries[i]
		if a.Pattern.String() != b.Pattern.String() || a.Anti != b.Anti {
			return fmt.Errorf("core: merging mismatched entry %d (%v vs %v)", i, a.Pattern, b.Pattern)
		}
		for j := range a.Errors {
			a.Errors[j] += b.Errors[j]
		}
		a.Words += b.Words
	}
	return nil
}

// Threshold converts raw counts into a boolean miscorrection profile using
// the paper's §5.2 filter: a bit is miscorrection-susceptible when its
// observation rate clearly separates from the near-zero noise floor.
// minFraction is the per-word observation rate cutoff (the paper's example
// threshold is 1e-3 on normalized probability mass); minCount is an absolute
// floor that rejects one-off transient errors.
func (c *Counts) Threshold(minFraction float64, minCount int64) *Profile {
	prof := &Profile{K: c.K}
	for _, e := range c.Entries {
		possible := gf2.NewVec(c.K)
		for b := 0; b < c.K; b++ {
			if e.Pattern.Has(b) {
				continue // ambiguous position
			}
			n := e.Errors[b]
			if n >= minCount && float64(n) >= minFraction*float64(e.Words) {
				possible.Set(b, true)
			}
		}
		prof.Entries = append(prof.Entries, Entry{Pattern: e.Pattern, Possible: possible, Anti: e.Anti})
	}
	return prof
}

// MiscorrectionRates returns, for each pattern, the per-bit observation rate
// (errors per word-read) at DISCHARGED positions — the quantity plotted in
// Figure 4.
func (c *Counts) MiscorrectionRates() [][]float64 {
	out := make([][]float64, len(c.Entries))
	for i, e := range c.Entries {
		rates := make([]float64, c.K)
		for b := 0; b < c.K; b++ {
			if !e.Pattern.Has(b) && e.Words > 0 {
				rates[b] = float64(e.Errors[b]) / float64(e.Words)
			}
		}
		out[i] = rates
	}
	return out
}

// CollectCounts runs the §5.1.3 experiment: program every available ECC word
// in the given true-cell rows with test patterns, sweep the refresh window,
// and record where post-correction errors appear. layout maps datawords to
// row bytes (from DiscoverWordLayout). Patterns are spread round-robin over
// the words and rotated between rounds so each pattern samples many
// independent cells.
//
// Cancelling ctx stops the sweep at the next (round, window) pass boundary
// and returns ctx.Err(); the partial counts are discarded because a profile
// with uneven per-pattern sampling would bias the §5.2 threshold filter.
func CollectCounts(ctx context.Context, chip Chip, rows []RowRef, layout WordLayout, patterns []Pattern, opts CollectOptions) (*Counts, error) {
	ctx = ctxOrBackground(ctx)
	if len(rows) == 0 {
		return nil, fmt.Errorf("core: no rows to test")
	}
	if len(patterns) == 0 {
		return nil, fmt.Errorf("core: no patterns to test")
	}
	k := layout.K()
	if k == 0 {
		return nil, fmt.Errorf("core: empty word layout")
	}
	if len(opts.Windows) == 0 {
		return nil, fmt.Errorf("core: no refresh windows configured")
	}
	rounds := opts.Rounds
	if rounds <= 0 {
		rounds = 1
	}
	chip.SetTemperature(opts.TempC)

	rb := layout.RegionBytes
	rowBytes := chip.DataBytesPerRow()
	regionsPerRow := rowBytes / rb
	wordsPerRegion := len(layout.Words)
	wordsPerRow := regionsPerRow * wordsPerRegion
	np := len(patterns)

	counts := &Counts{K: k}
	for _, p := range patterns {
		counts.Entries = append(counts.Entries, CountEntry{
			Pattern: p,
			Errors:  make([]int64, k),
			Anti:    opts.Invert,
		})
	}

	// Pattern p's dataword bytes. In a true-cell region the CHARGED bits
	// are written as logical 1; in an anti-cell region (opts.Invert) the
	// whole dataword is complemented so the same cells end up CHARGED.
	nb := k / 8
	patBytes := make([]byte, np*nb)
	for pi, p := range patterns {
		bs := patBytes[pi*nb : (pi+1)*nb]
		for _, bit := range p.Charged() {
			bs[bit/8] |= 1 << uint(bit%8)
		}
		if opts.Invert {
			for i := range bs {
				bs[i] = ^bs[i]
			}
		}
	}

	for _, word := range layout.Words {
		if len(word) != nb {
			return nil, fmt.Errorf("core: word layout mixes %d- and %d-byte words", nb, len(word))
		}
	}

	// Region image p is a region whose word w holds pattern (p+w) mod np,
	// placed by the layout. Patterns are handed to a row's words
	// round-robin, so a row starting at pattern s has image
	// (s + g*wordsPerRegion) mod np in region g. strip lays the images out
	// so that every such row is one contiguous run: each cycle of
	// p -> (p + wordsPerRegion) mod np in order, followed by its first
	// regionsPerRow-1 images again, and at[s] is where row s's run starts.
	cycles := gcd(np, wordsPerRegion)
	cycleLen := np / cycles
	runLen := cycleLen + regionsPerRow - 1
	strip := make([]byte, cycles*runLen*rb)
	at := make([]int, np)
	for c := range cycles {
		for j := range runLen {
			p := (c + j*wordsPerRegion) % np
			img := strip[(c*runLen+j)*rb:]
			if j < cycleLen {
				at[p] = (c*runLen + j) * rb
			}
			for w, word := range layout.Words {
				pb := patBytes[(p+w)%np*nb:]
				for bi, off := range word {
					img[off] = pb[bi]
				}
			}
		}
	}
	// written returns the row starting at pattern s as written. Bytes past
	// the last whole region are written as zero: no word covers them.
	regionBytes := regionsPerRow * rb
	var tail []byte
	if regionBytes < rowBytes {
		tail = make([]byte, rowBytes)
	}
	written := func(s int) []byte {
		row := strip[at[s]:][:regionBytes]
		if tail == nil {
			return row
		}
		copy(tail, row)
		return tail
	}

	// byteWord is the inverse of the layout over a row: row byte i belongs
	// to row word byteWord[i]>>8 and holds its data bits from byteWord[i]&0xFF
	// up; -1 marks bytes that no word covers (never written, never counted).
	byteWord := make([]int32, rowBytes)
	for i := range byteWord {
		byteWord[i] = -1
	}
	for region := range regionsPerRow {
		for w, word := range layout.Words {
			for bi, off := range word {
				byteWord[region*rb+off] = int32((region*wordsPerRegion+w)<<8 | 8*bi)
			}
		}
	}

	readRow := rowReadFunc(chip)
	pass := 0
	passes := sweepPasses(opts)
	for round := 0; round < rounds; round++ {
		for _, window := range opts.Windows {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// Rotate assignments so pattern p lands on different physical
			// words each pass (fresh retention-time draws): the pattern of
			// row i's word w is (first + i*wordsPerRow + w) mod np, so row
			// i's region g is image (start + g*wordsPerRegion) mod np with
			// start = (first + i*wordsPerRow) mod np.
			offset := pass * 7919 // prime stride decorrelates passes
			pass++
			first := offset % np
			start := first
			for _, rr := range rows {
				chip.WriteRow(rr.Bank, rr.Row, written(start))
				start = (start + wordsPerRow) % np
			}
			chip.PauseRefresh(window)
			start = first
			for _, rr := range rows {
				got := readRow(rr.Bank, rr.Row)
				row := written(start)
				for o := 0; o < rowBytes; o += 8 {
					for diff := load64(got, o) ^ load64(row, o); diff != 0; diff &= diff - 1 {
						t := bits.TrailingZeros64(diff)
						if wb := byteWord[o+t/8]; wb >= 0 {
							entry := &counts.Entries[(start+int(wb>>8))%np]
							entry.Errors[int(wb&0xFF)+t%8]++
						}
					}
				}
				start = (start + wordsPerRow) % np
			}
			// The pass handed len(rows)*wordsPerRow words round-robin from
			// pattern first: every pattern got the same share, and the
			// remainder went to the patterns right after first.
			perPass := len(rows) * wordsPerRow
			for j := range counts.Entries {
				counts.Entries[j].Words += int64(perPass / np)
			}
			for j := range perPass % np {
				counts.Entries[(first+j)%np].Words++
			}
			opts.Progress.emit(Event{
				Stage:  StageCollect,
				Round:  round + 1,
				Rounds: rounds,
				Window: window,
				Pass:   pass,
				Passes: passes,
			})
		}
	}
	return counts, nil
}

// rowReader is the optional fast-path extension of Chip: read a row into
// caller-owned storage instead of allocating the return slice per call.
type rowReader interface {
	ReadRowInto(bank, row int, data []byte) []byte
}

// rowReadFunc returns chip's row read. Chips exposing ReadRowInto (ondie.Chip
// does) read into one buffer reused by every call, so a returned row is only
// valid until the next read; experiment loops then allocate nothing per
// read. Other Chip implementations fall back to the allocating ReadRow.
func rowReadFunc(chip Chip) func(bank, row int) []byte {
	if into, ok := chip.(rowReader); ok {
		buf := make([]byte, chip.DataBytesPerRow())
		return func(bank, row int) []byte { return into.ReadRowInto(bank, row, buf) }
	}
	return chip.ReadRow
}

// gcd returns the greatest common divisor of two positive ints.
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// load64 returns the 8 bytes of b from offset o as a little-endian word;
// bytes past the end of b read as zero, so rows whose size is not a
// multiple of 8 compare their tail like any other chunk.
func load64(b []byte, o int) uint64 {
	if o+8 <= len(b) {
		return binary.LittleEndian.Uint64(b[o:])
	}
	var v uint64
	for i := len(b) - 1; i >= o; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

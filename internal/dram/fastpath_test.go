package dram

import (
	"fmt"
	"math"
	mathbits "math/bits"
	"math/rand/v2"
	"sort"
	"testing"
	"time"

	"repro/internal/gf2"
	"repro/internal/stats"
)

// TestVRTJitterBound checks the jitter band the read path leans on at its
// ends: Uniform01 never reaches 0 or 1, so the extreme hashes have finite
// normal quantiles, and their jitter factors (the extremes over all hashes,
// as jitterFactor is monotone in h>>12) lie inside [vrtLo, vrtHi].
func TestVRTJitterBound(t *testing.T) {
	for _, sigma := range []float64{0.02, 0.5} {
		m := DefaultRetention()
		m.VRTSigmaLog = sigma
		g := newRetGrid(m)
		lo, hi := m.jitterFactor(0), m.jitterFactor(^uint64(0))
		if math.IsInf(lo, 0) || math.IsInf(hi, 0) || math.IsNaN(lo) || math.IsNaN(hi) || lo == 0 {
			t.Fatalf("vrt %v: extreme jitter factors not finite and positive: %v, %v", sigma, lo, hi)
		}
		if lo < g.vrtLo || hi > g.vrtHi {
			t.Fatalf("vrt %v: extreme jitter factors [%v, %v] outside the band [%v, %v]", sigma, lo, hi, g.vrtLo, g.vrtHi)
		}
	}
}

// referenceRead recomputes a row read the straightforward way, under the
// chip's own retention model: every charged cell evaluates its full
// jittered retention time, then the row's cell type maps charges to bits.
// readCounter is the value the chip used for that read. Transient noise,
// which the read draws apart from decay, comes from the chip's own
// injectTransient and needs the chip's read counter still at that read.
func referenceRead(c *Chip, bank, row int, charges gf2.Vec, exposure float64, readCounter uint64) gf2.Vec {
	m := c.cfg.Retention
	out := charges.Clone()
	if exposure > 0 {
		for _, i := range charges.Support() {
			h := stats.HashN(c.cfg.Seed, uint64(bank), uint64(row), uint64(i))
			tRet := m.CellRetentionSeconds(h)
			if m.VRTSigmaLog > 0 {
				jitter := stats.NormalInv(stats.Uniform01(stats.HashN(h, readCounter)))
				tRet *= math.Exp(m.VRTSigmaLog * jitter)
			}
			if tRet < exposure {
				out.Set(i, false)
			}
		}
	}
	if c.CellTypeOf(bank, row) == AntiCell {
		invert(out)
	}
	if c.cfg.TransientBER > 0 {
		c.injectTransient(out, bank, row)
	}
	return out
}

// checkRead reads one row, compares it with referenceRead and returns it.
func checkRead(t testing.TB, c *Chip, bank, row int, what string) gf2.Vec {
	t.Helper()
	st := &c.rows[bank][row]
	exposure := c.thermalSeconds - st.writeStamp
	got := c.ReadRow(bank, row)
	if want := referenceRead(c, bank, row, st.charges, exposure, c.readCounter); !got.Equal(want) {
		t.Fatalf("%s: read of (%d,%d) at exposure %v (read %d) diverges from the reference",
			what, bank, row, exposure, c.readCounter)
	}
	return got
}

// checkFlips makes on twin the read that c just made (read returned it):
// twin's ReadRowFlipsInto, XORed into the bits last written, must equal it
// bit for bit, and both chips must have counted the same reads.
func checkFlips(t testing.TB, twin, c *Chip, bank, row int, written, read gf2.Vec, what string) {
	t.Helper()
	got := twin.ReadRowFlipsInto(bank, row, gf2.NewVec(written.Len())).Xor(written)
	if !got.Equal(read) {
		t.Fatalf("%s: flip read of (%d,%d) (read %d) XOR the written bits diverges from ReadRowInto",
			what, bank, row, twin.readCounter)
	}
	if twin.readCounter != c.readCounter {
		t.Fatalf("%s: flip read counted to %d, ReadRowInto to %d", what, twin.readCounter, c.readCounter)
	}
}

// TestRetGridBrackets checks the retGrid invariants the read path's
// verdicts rest on: the retention bounds are non-decreasing, and for every
// grid cell both end hashes and 64 random interior hashes map inside
// [retLo, retHi] (retention) and [fLo, fHi] (jitter), with every jitter
// factor inside [vrtLo, vrtHi].
func TestRetGridBrackets(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for _, sigma := range []float64{0, 0.02, 0.5} {
		m := DefaultRetention()
		m.VRTSigmaLog = sigma
		g := newRetGrid(m)
		for i := 1; i < len(g.retLo); i++ {
			if g.retLo[i] < g.retLo[i-1] || g.retHi[i] < g.retHi[i-1] {
				t.Fatalf("vrt %v: retention bounds decrease at grid cell %d", sigma, i)
			}
		}
		for i := range g.retLo {
			lo := uint64(i) << (64 - gridBits)
			hs := []uint64{lo, lo | (1<<(64-gridBits) - 1)}
			for j := 0; j < 64; j++ {
				hs = append(hs, lo|rng.Uint64()>>gridBits)
			}
			for _, h := range hs {
				if r := m.CellRetentionSeconds(h); r < g.retLo[i] || r > g.retHi[i] {
					t.Fatalf("vrt %v cell %d: retention %v of hash %#x outside [%v, %v]", sigma, i, r, h, g.retLo[i], g.retHi[i])
				}
				f := m.jitterFactor(h)
				if f < g.fLo[i] || f > g.fHi[i] {
					t.Fatalf("vrt %v cell %d: jitter %v of hash %#x outside [%v, %v]", sigma, i, f, h, g.fLo[i], g.fHi[i])
				}
				if f < g.vrtLo || f > g.vrtHi {
					t.Fatalf("vrt %v: jitter %v of hash %#x outside the band [%v, %v]", sigma, f, h, g.vrtLo, g.vrtHi)
				}
			}
		}
	}
}

// decayReference is the per-charged-cell decay kernel: it searches the grid
// for the band limits itself and hashes every charged cell of the row.
// TestDecayMatchesReference holds decay to it mark for mark.
func decayReference(c *Chip, mark []uint64, st *rowState, bank, row int, jitter bool) {
	exposure := c.thermalSeconds - st.writeStamp
	if exposure <= 0 {
		return
	}
	g, m := sharedGrid(c.cfg.Retention), c.cfg.Retention
	jitter = jitter && m.VRTSigmaLog > 0
	lo, hi := 1.0, 1.0
	if jitter {
		lo, hi = g.vrtLo, g.vrtHi
	}
	dies := uint64(sort.Search(len(g.retHi), func(i int) bool { return g.retHi[i]*hi >= exposure }))
	lives := uint64(sort.Search(len(g.retLo), func(i int) bool { return g.retLo[i]*lo >= exposure }))
	prefix := stats.HashN(c.cfg.Seed, uint64(bank), uint64(row))
	for wi, w := range st.charges.Words() {
		for ; w != 0; w &= w - 1 {
			bit := mathbits.TrailingZeros64(w)
			h := stats.SplitMix64(prefix ^ uint64(wi<<6|bit))
			gi := h >> (64 - gridBits)
			switch {
			case gi < dies:
			case gi >= lives:
				continue
			case !jitter:
				if m.CellRetentionSeconds(h) >= exposure {
					continue
				}
			default:
				h2 := stats.HashN(h, c.readCounter)
				gj := h2 >> (64 - gridBits)
				switch {
				case g.retHi[gi]*g.fHi[gj] < exposure:
				case g.retLo[gi]*g.fLo[gj] >= exposure:
					continue
				case m.CellRetentionSeconds(h)*m.jitterFactor(h2) >= exposure:
					continue
				}
			}
			mark[wi] ^= 1 << uint(bit)
		}
	}
}

// TestLevelPlanesMatchHash reads every cell's level back from its row's
// planes, for several seeds, rows and widths (most not a multiple of 64),
// and requires it to equal the top levelBits bits of the cell's address
// hash (its grid cell >> levelShift), with no bit set past the row's end.
func TestLevelPlanesMatchHash(t *testing.T) {
	for _, seed := range []uint64{0, 1, 0xfa57, 1 << 63} {
		for _, cells := range []int{1, 63, 64, 65, 200, 928} {
			c := New(Config{Banks: 2, Rows: 3, CellsPerRow: cells, Seed: seed})
			for b := range 2 {
				for r := range 3 {
					st := &c.rows[b][r]
					st.charges = gf2.NewVec(cells)
					c.buildLevels(st, stats.HashN(seed, uint64(b), uint64(r)))
					levels := st.levels
					if len(levels) != len(st.charges.Words()) {
						t.Fatalf("seed %#x width %d: %d level words for %d charge words", seed, cells, len(levels), len(st.charges.Words()))
					}
					for i := range len(levels) * 64 {
						var got uint64
						for p := range levelBits {
							got |= levels[i>>6][p] >> (i & 63) & 1 << p
						}
						want := uint64(0)
						if i < cells {
							gi := stats.HashN(seed, uint64(b), uint64(r), uint64(i)) >> (64 - gridBits)
							want = gi >> levelShift
						}
						if got != want {
							t.Fatalf("seed %#x width %d cell (%d,%d,%d): plane level %d, hash level %d", seed, cells, b, r, i, got, want)
						}
					}
				}
			}
		}
	}
}

// TestDecayMatchesReference holds decay's marks to decayReference's at
// exposures that put the band limits on, and one ulp either side of, every
// level boundary, in the middle of levels, at zero, at a 48-minute
// sweep's windows and past every cell (lives and dies at the top of the
// grid), with jitter on and off, on sparse, half and fully charged rows
// whose width is not a multiple of 64.
func TestDecayMatchesReference(t *testing.T) {
	const cells = 450
	for _, sigma := range []float64{0, 0.02, 0.5} {
		m := DefaultRetention()
		m.VRTSigmaLog = sigma
		g := newRetGrid(m)
		var exposures []float64
		for gi := 0; gi < 1<<gridBits; gi += 1 << (levelShift - 1) {
			for _, f := range []float64{1, g.vrtLo, g.vrtHi} {
				for _, e := range []float64{g.retLo[gi] * f, g.retHi[gi] * f} {
					exposures = append(exposures, math.Nextafter(e, 0), e, math.Nextafter(e, math.Inf(1)))
				}
			}
		}
		for _, w := range collectWindows {
			exposures = append(exposures, w.Seconds())
		}
		exposures = append(exposures, 0, g.retHi[len(g.retHi)-1]*g.vrtHi*2)
		c := New(Config{Banks: 1, Rows: 3, CellsPerRow: cells, Seed: 0x1e7e1, Retention: m})
		rng := rand.New(rand.NewPCG(3, 4))
		for r, every := range []int{29, 2, 1} {
			v := gf2.NewVec(cells)
			for i := 0; i < cells; i++ {
				v.Set(i, rng.IntN(every) == 0)
			}
			c.WriteRow(0, r, v)
		}
		reached := map[string]bool{}
		for _, jitter := range []bool{false, true} {
			for _, e := range exposures {
				c.thermalSeconds = e
				for r := range 3 {
					c.readCounter++
					st := &c.rows[0][r]
					got, want := st.charges.Clone(), st.charges.Clone()
					c.decay(got.Words(), st, 0, r, jitter)
					decayReference(c, want.Words(), st, 0, r, jitter)
					if !got.Equal(want) {
						t.Fatalf("vrt %v jitter %v exposure %v row %d: decay marks diverge from the reference", sigma, jitter, e, r)
					}
				}
				if e > 0 {
					b := c.bandOf(e, jitter && sigma > 0)
					dies, lives := b.dies, b.lives
					reached["dies on a level boundary"] = reached["dies on a level boundary"] || (dies%(1<<levelShift) == 0 && dies > 0 && dies < 1<<gridBits)
					reached["lives on a level boundary"] = reached["lives on a level boundary"] || (lives%(1<<levelShift) == 0 && lives > 0 && lives < 1<<gridBits)
					reached["lives in a level"] = reached["lives in a level"] || lives%(1<<levelShift) != 0
					reached["lives at the top"] = reached["lives at the top"] || lives == 1<<gridBits
					reached["dies at the top"] = reached["dies at the top"] || dies == 1<<gridBits
				}
			}
		}
		for what, ok := range reached {
			if !ok {
				t.Fatalf("vrt %v: no exposure put %s", sigma, what)
			}
		}
	}
}

// TestReadRowFastPathExact holds the fast path bit-identical to the
// straightforward per-cell jitter evaluation across many reads and decay
// windows (including heavy-decay ones where most cells sit far outside the
// jitter band), for jitter off, the default jitter and heavy jitter, at
// several temperatures.
func TestReadRowFastPathExact(t *testing.T) {
	for _, sigma := range []float64{0, 0.02, 0.5} {
		for _, tempC := range []float64{45, 80, 95} {
			t.Run(fmt.Sprintf("vrt=%v/temp=%v", sigma, tempC), func(t *testing.T) {
				m := DefaultRetention()
				m.VRTSigmaLog = sigma
				c := New(Config{Banks: 1, Rows: 4, CellsPerRow: 256, Seed: 0xfa57, Retention: m})
				c.SetTemperature(tempC)
				rng := rand.New(rand.NewPCG(5, 6))
				for r := 0; r < 4; r++ {
					v := gf2.NewVec(256)
					for i := 0; i < 256; i++ {
						v.Set(i, rng.IntN(4) != 0)
					}
					c.WriteRow(0, r, v)
				}
				for _, pause := range []time.Duration{0, time.Minute, 10 * time.Minute, 3 * time.Hour, 48 * time.Hour} {
					c.PauseRefresh(pause)
					for r := 0; r < 4; r++ {
						for rep := 0; rep < 5; rep++ {
							checkRead(t, c, 0, r, fmt.Sprintf("pause %v rep %d", pause, rep))
						}
					}
				}
			})
		}
	}
}

// TestReadRowExactAtRetentionBoundary sets the decay exposure exactly on,
// and one ulp either side of, a charged cell's retention time — both the
// fixed retention time and the jittered one the next read will draw — where
// any approximation in the decay verdict would show.
func TestReadRowExactAtRetentionBoundary(t *testing.T) {
	for _, sigma := range []float64{0, 0.02, 0.5} {
		m := DefaultRetention()
		m.VRTSigmaLog = sigma
		c := New(Config{Banks: 1, Rows: 2, CellsPerRow: 200, Seed: 0xb0b, Retention: m})
		ones := gf2.NewVec(200)
		for i := 0; i < 200; i++ {
			ones.Set(i, true)
		}
		for row := 0; row < 2; row++ {
			for cell := 0; cell < 200; cell += 7 {
				tRet := c.RetentionSecondsOf(0, row, cell)
				h := stats.HashN(c.cfg.Seed, 0, uint64(row), uint64(cell))
				exposures := []func() float64{
					func() float64 { return tRet },
					// the jittered retention time the next read draws
					func() float64 { return tRet * m.jitterFactor(stats.HashN(h, c.readCounter+1)) },
				}
				for _, at := range exposures {
					for _, step := range []int{-1, 0, 1} {
						c.thermalSeconds = 0
						c.WriteRow(0, row, ones)
						e := at()
						switch step {
						case -1:
							e = math.Nextafter(e, 0)
						case 1:
							e = math.Nextafter(e, math.Inf(1))
						}
						c.thermalSeconds = e
						checkRead(t, c, 0, row, fmt.Sprintf("vrt %v cell %d exposure %v", sigma, cell, e))
					}
				}
			}
		}
	}
}

// TestRefreshAllMatchesRetentionRule holds RefreshAll to the plain rule: a
// charged cell is discharged exactly when its fixed retention time is below
// the row's exposure (no jitter), across refresh cycles and both cell types.
func TestRefreshAllMatchesRetentionRule(t *testing.T) {
	for _, sigma := range []float64{0, 0.02, 0.5} {
		m := DefaultRetention()
		m.VRTSigmaLog = sigma
		c := New(Config{Banks: 2, Rows: 6, CellsPerRow: 150, Seed: 0x5eed, Retention: m, Layout: BlockLayout(2, 1)})
		rng := rand.New(rand.NewPCG(7, 8))
		for b := 0; b < 2; b++ {
			for r := 0; r < 5; r++ { // row 5 stays unwritten
				v := gf2.NewVec(150)
				for i := 0; i < 150; i++ {
					v.Set(i, rng.IntN(3) != 0)
				}
				c.WriteRow(b, r, v)
			}
		}
		for _, pause := range []time.Duration{0, 20 * time.Minute, 40 * time.Minute, 3 * time.Hour} {
			c.PauseRefresh(pause)
			want := make([][]gf2.Vec, 2)
			for b := range want {
				want[b] = make([]gf2.Vec, 5)
				for r := range want[b] {
					st := &c.rows[b][r]
					exposure := c.thermalSeconds - st.writeStamp
					want[b][r] = st.charges.Clone()
					for _, i := range st.charges.Support() {
						if exposure > 0 && c.RetentionSecondsOf(b, r, i) < exposure {
							want[b][r].Set(i, false)
						}
					}
				}
			}
			c.RefreshAll()
			for b := range want {
				for r := range want[b] {
					if !c.rows[b][r].charges.Equal(want[b][r]) {
						t.Fatalf("vrt %v pause %v: RefreshAll of (%d,%d) diverges from the retention rule", sigma, pause, b, r)
					}
					if c.rows[b][r].writeStamp != c.thermalSeconds {
						t.Fatalf("RefreshAll left (%d,%d) with a stale write stamp", b, r)
					}
				}
			}
		}
	}
}

// FuzzReadRowExact fuzzes chip seed, row width (1-600 cells), stored bits,
// the pause sequence, temperature, VRT jitter and transient noise, and
// checks every read against referenceRead. Row 0 holds true-cells and row 1
// anti-cells. Rows are read right after the write (zero exposure), then
// three times after every pause; a pause byte with its top bit set is
// followed by a RefreshAll, so locked-in decay is fuzzed too, and a zero
// pause after a refresh reads at zero exposure again. A twin chip built
// from the same config sees the same writes, pauses and refreshes and makes
// each read through ReadRowFlipsInto, which XORed into the written bits
// must equal the first chip's read.
func FuzzReadRowExact(f *testing.F) {
	f.Add(uint64(1), uint16(256), []byte{0xff, 0x0f, 0xaa}, []byte{20, 40, 90}, uint8(80), uint16(20), uint8(0))
	f.Add(uint64(7), uint16(300), []byte{0xff}, []byte{30, 0x94, 0x80, 0, 20}, uint8(80), uint16(500), uint8(2))
	// 119 C and six 254-minute pauses: the exposure passes every cell's
	// retention bracket, so lives reaches the top of the grid.
	f.Add(uint64(5), uint16(131), []byte{0xff, 0xf0}, []byte{0x7f, 0x7f, 0x7f, 0x7f, 0x7f, 0x7f}, uint8(99), uint16(20), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, cellSel uint16, bits, pauses []byte, tempSel uint8, vrtSel uint16, berSel uint8) {
		cells := 1 + int(cellSel)%600
		m := DefaultRetention()
		m.VRTSigmaLog = float64(vrtSel%1001) / 1000 // 0 .. 1
		cfg := Config{
			Banks: 1, Rows: 2, CellsPerRow: cells, Seed: seed, Retention: m, Layout: BlockLayout(1),
			TransientBER: []float64{0, 1e-3, 1e-2}[berSel%3],
		}
		c, twin := New(cfg), New(cfg)
		written := make([]gf2.Vec, 2)
		for _, chip := range []*Chip{c, twin} {
			chip.SetTemperature(20 + float64(tempSel%100))
		}
		for r := range written {
			v := gf2.NewVec(cells)
			for i := 0; i < cells; i++ {
				if len(bits) > 0 {
					j := r*cells + i
					v.Set(i, bits[(j/8)%len(bits)]>>(j%8)&1 == 1)
				}
			}
			c.WriteRow(0, r, v)
			twin.WriteRow(0, r, v)
			written[r] = v
		}
		readAll := func(reps int, what string) {
			for r := range written {
				for range reps {
					read := checkRead(t, c, 0, r, what)
					checkFlips(t, twin, c, 0, r, written[r], read, what)
				}
			}
		}
		readAll(1, "after the write")
		if len(pauses) > 16 {
			pauses = pauses[:16]
		}
		for _, p := range pauses {
			for _, chip := range []*Chip{c, twin} {
				chip.PauseRefresh(time.Duration(p&0x7f) * 2 * time.Minute)
			}
			readAll(3, fmt.Sprintf("pause byte %#x", p))
			if p&0x80 != 0 {
				c.RefreshAll()
				twin.RefreshAll()
			}
		}
	})
}

// TestReadRowIntoReuse checks that reads and flip reads through a reused
// destination do not allocate once a decaying read has bound the retention
// grid and built the row's level planes.
func TestReadRowIntoReuse(t *testing.T) {
	c := New(Config{Banks: 1, Rows: 1, CellsPerRow: 128, Seed: 9})
	v := gf2.NewVec(128)
	for i := 0; i < 128; i += 3 {
		v.Set(i, true)
	}
	c.WriteRow(0, 0, v)
	c.PauseRefresh(20 * time.Minute)
	dst := gf2.NewVec(128)
	if c.ReadRowInto(0, 0, dst).Equal(v) {
		t.Fatal("the warm-up read lost no cell; pick a longer pause")
	}
	if c.grid == nil || c.rows[0][0].levels == nil {
		t.Fatal("the warm-up read left the grid or the level planes unbuilt")
	}
	allocs := testing.AllocsPerRun(50, func() {
		c.ReadRowInto(0, 0, dst)
	})
	if allocs != 0 {
		t.Fatalf("warm ReadRowInto allocated %v times per read", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { c.ReadRowFlipsInto(0, 0, dst) }); allocs != 0 {
		t.Fatalf("warm ReadRowFlipsInto allocated %v times per read", allocs)
	}
}

// BenchmarkReadRow times one decaying row read with the default VRT jitter
// on a 16-word k=24-sized row (464 cells): sparse rows are 1-CHARGED-like
// (one charged cell in 29), dense rows fully charged. The -flips cases read
// through ReadRowFlipsInto. The collect case reads rows shaped like a
// k=24 recovery's collection instead (see collectRows).
func BenchmarkReadRow(b *testing.B) {
	b.Run("collect", benchmarkCollectReads)
	const cells = 16 * 29
	for _, bc := range []struct {
		name  string
		every int
		flips bool
	}{{"sparse", 29, false}, {"dense", 1, false}, {"sparse-flips", 29, true}, {"dense-flips", 1, true}} {
		b.Run(bc.name, func(b *testing.B) {
			c := New(Config{Banks: 1, Rows: 8, CellsPerRow: cells, Seed: 3})
			v := gf2.NewVec(cells)
			for i := 0; i < cells; i += bc.every {
				v.Set(i, true)
			}
			for r := 0; r < 8; r++ {
				c.WriteRow(0, r, v)
			}
			c.PauseRefresh(48 * time.Minute)
			read := c.ReadRowInto
			if bc.flips {
				read = c.ReadRowFlipsInto
			}
			dst := gf2.NewVec(cells)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				read(0, i%8, dst)
			}
		})
	}
}

// collectWindows are a 48-minute sweep's refresh windows, 4 to 48 minutes
// in 4-minute steps, and collectRowsPerWindow how many rows the collect
// benchmark reads at each.
const collectRowsPerWindow = 8

var collectWindows = func() []time.Duration {
	var ws []time.Duration
	for m := 4; m <= 48; m += 4 {
		ws = append(ws, time.Duration(m)*time.Minute)
	}
	return ws
}()

// collectRows returns rows shaped like a k=24 recovery's collection rows:
// 32 codewords of 29 cells (24 data, 5 parity) per row, each holding a
// {1,2}-CHARGED data pattern and the parity a fixed random systematic code
// gives it, the patterns dealt round-robin from a random start per row.
func collectRows(n int) []gf2.Vec {
	const k, r, words = 24, 5, 32
	rng := rand.New(rand.NewPCG(24, 12))
	var cols [k]uint64
	for i := range cols {
		for mathbits.OnesCount64(cols[i]) < 2 {
			cols[i] = rng.Uint64N(1 << r)
		}
	}
	var patterns [][]int
	for i := range k {
		patterns = append(patterns, []int{i})
		for j := i + 1; j < k; j++ {
			patterns = append(patterns, []int{i, j})
		}
	}
	rows := make([]gf2.Vec, n)
	for ri := range rows {
		v := gf2.NewVec(words * (k + r))
		next := rng.IntN(len(patterns))
		for w := range words {
			base := w * (k + r)
			var parity uint64
			for _, bit := range patterns[next] {
				v.Set(base+bit, true)
				parity ^= cols[bit]
			}
			for p := range r {
				v.Set(base+k+p, parity>>p&1 == 1)
			}
			next = (next + 1) % len(patterns)
		}
		rows[ri] = v
	}
	return rows
}

// benchmarkCollectReads reads collectRows at every window of a 48-minute
// sweep: the rows of the longest window are written first and each later
// group one window step after, so row group g sits at collectWindows[g]
// when the reads start. Reads go group by group, as a collection pass
// reads every row at one exposure.
func benchmarkCollectReads(b *testing.B) {
	n := len(collectWindows) * collectRowsPerWindow
	rows := collectRows(n)
	c := New(Config{Banks: 1, Rows: n, CellsPerRow: rows[0].Len(), Seed: 3})
	for g := len(collectWindows) - 1; g >= 0; g-- {
		for i := range collectRowsPerWindow {
			r := g*collectRowsPerWindow + i
			c.WriteRow(0, r, rows[r])
		}
		c.PauseRefresh(collectWindows[0])
	}
	dst := gf2.NewVec(rows[0].Len())
	for r := range n { // build the level planes
		c.ReadRowInto(0, r, dst)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ReadRowInto(0, i%n, dst)
	}
}

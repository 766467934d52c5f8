package dram

import (
	"math"
	"testing"
	"time"

	"repro/internal/gf2"
)

func testChip(layout Layout) *Chip {
	return New(Config{
		Banks:       2,
		Rows:        64,
		CellsPerRow: 256,
		Seed:        42,
		Layout:      layout,
	})
}

func allOnes(n int) gf2.Vec {
	v := gf2.NewVec(n)
	for i := 0; i < n; i++ {
		v.Set(i, true)
	}
	return v
}

func TestWriteReadRoundTripNoDecay(t *testing.T) {
	c := testChip(nil)
	v := gf2.VecFromSupport(256, 0, 1, 100, 255)
	c.WriteRow(0, 0, v)
	got := c.ReadRow(0, 0)
	if !got.Equal(v) {
		t.Fatal("read disagrees with write with refresh running")
	}
}

func TestReadUnwrittenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic reading unwritten row")
		}
	}()
	testChip(nil).ReadRow(0, 0)
}

func TestDecayIsUnidirectional(t *testing.T) {
	c := testChip(nil)
	n := c.cfg.CellsPerRow
	ones := allOnes(n)
	zeros := gf2.NewVec(n)
	c.WriteRow(0, 0, ones)
	c.WriteRow(0, 1, zeros)
	c.PauseRefresh(40 * time.Minute)
	gotOnes := c.ReadRow(0, 0)
	gotZeros := c.ReadRow(0, 1)
	if gotOnes.Weight() >= n {
		t.Fatal("a 40-minute pause at 80C should decay some charged true-cells")
	}
	if gotZeros.Weight() != 0 {
		t.Fatal("discharged true-cells must never flip 0->1")
	}
}

func TestAntiCellPolarity(t *testing.T) {
	c := testChip(func(bank, row int) CellType { return AntiCell })
	n := c.cfg.CellsPerRow
	// For anti-cells, logical 0 is the CHARGED state: writing all-zero and
	// pausing refresh must produce 0->1 errors, while all-one is immune.
	c.WriteRow(0, 0, gf2.NewVec(n))
	c.WriteRow(0, 1, allOnes(n))
	c.PauseRefresh(40 * time.Minute)
	if c.ReadRow(0, 0).Weight() == 0 {
		t.Fatal("charged anti-cells (logical 0) should decay to logical 1")
	}
	if c.ReadRow(0, 1).Weight() != n {
		t.Fatal("discharged anti-cells (logical 1) must not decay")
	}
}

func TestDecayRepeatability(t *testing.T) {
	c := New(Config{Banks: 1, Rows: 8, CellsPerRow: 512, Seed: 7,
		Retention: RetentionModel{ // VRT disabled for exact repeatability
			MuLog: 8.017, SigmaLog: 0.621, ReferenceTempC: 80, HalvingCelsius: 10,
		}})
	n := c.cfg.CellsPerRow
	c.WriteRow(0, 3, allOnes(n))
	c.PauseRefresh(30 * time.Minute)
	first := c.ReadRow(0, 3)
	second := c.ReadRow(0, 3)
	if !first.Equal(second) {
		t.Fatal("without VRT, repeated reads must see identical decay")
	}
	// Rewriting restores the charge; the same pause decays the same cells.
	c.WriteRow(0, 3, allOnes(n))
	c.PauseRefresh(30 * time.Minute)
	third := c.ReadRow(0, 3)
	if !first.Equal(third) {
		t.Fatal("retention failures must be repeatable across write cycles")
	}
}

func TestDecayMonotoneInWindow(t *testing.T) {
	c := testChip(nil)
	n := c.cfg.CellsPerRow
	var prevErrs int
	for i, pause := range []time.Duration{2, 6, 12, 24, 40} {
		c.WriteRow(0, 0, allOnes(n))
		c.PauseRefresh(time.Duration(pause) * time.Minute)
		errs := n - c.ReadRow(0, 0).Weight()
		if errs < prevErrs {
			t.Fatalf("step %d: error count %d decreased from %d", i, errs, prevErrs)
		}
		prevErrs = errs
	}
	if prevErrs == 0 {
		t.Fatal("no decay at 40 minutes; retention model mistuned")
	}
}

func TestTemperatureAcceleratesDecay(t *testing.T) {
	count := func(temp float64) int {
		c := testChip(nil)
		n := c.cfg.CellsPerRow
		c.SetTemperature(temp)
		total := 0
		for row := 0; row < c.cfg.Rows; row++ {
			c.WriteRow(0, row, allOnes(n))
		}
		c.PauseRefresh(20 * time.Minute)
		for row := 0; row < c.cfg.Rows; row++ {
			total += n - c.ReadRow(0, row).Weight()
		}
		return total
	}
	cold, hot := count(40), count(80)
	if cold >= hot {
		t.Fatalf("decay at 40C (%d) should be rarer than at 80C (%d)", cold, hot)
	}
}

func TestFailureProbabilityMatchesEmpirical(t *testing.T) {
	c := New(Config{Banks: 1, Rows: 128, CellsPerRow: 1024, Seed: 99,
		Retention: RetentionModel{MuLog: 8.017, SigmaLog: 0.621, ReferenceTempC: 80, HalvingCelsius: 10}})
	n := c.cfg.CellsPerRow
	window := 25 * time.Minute
	for row := 0; row < c.cfg.Rows; row++ {
		c.WriteRow(0, row, allOnes(n))
	}
	c.PauseRefresh(window)
	fails := 0
	for row := 0; row < c.cfg.Rows; row++ {
		fails += n - c.ReadRow(0, row).Weight()
	}
	got := float64(fails) / float64(n*c.cfg.Rows)
	want := c.cfg.Retention.FailureProbability(window, 80)
	if math.Abs(got-want) > 0.25*want+1e-4 {
		t.Fatalf("empirical BER %v, analytic %v", got, want)
	}
}

func TestBlockLayoutAlternates(t *testing.T) {
	layout := BlockLayout(800, 824, 1224)
	// Row 0 is in the first (true) block; row 800 starts the anti block.
	cases := []struct {
		row  int
		want CellType
	}{
		{0, TrueCell}, {799, TrueCell},
		{800, AntiCell}, {1623, AntiCell},
		{1624, TrueCell}, {2847, TrueCell},
		{2848, AntiCell}, // cycle repeats with flipped phase
	}
	for _, tc := range cases {
		if got := layout(0, tc.row); got != tc.want {
			t.Errorf("row %d: %v, want %v", tc.row, got, tc.want)
		}
	}
	// Roughly half of a long span should be each type.
	trues := 0
	span := 2 * (800 + 824 + 1224)
	for r := 0; r < span; r++ {
		if layout(0, r) == TrueCell {
			trues++
		}
	}
	if trues*2 != span {
		t.Fatalf("true-cell fraction %d/%d, want exactly half", trues, span)
	}
}

func TestTransientErrorsInjected(t *testing.T) {
	c := New(Config{Banks: 1, Rows: 4, CellsPerRow: 4096, Seed: 5, TransientBER: 1e-3})
	n := c.cfg.CellsPerRow
	c.WriteRow(0, 0, gf2.NewVec(n))
	flips := 0
	reads := 200
	for i := 0; i < reads; i++ {
		flips += c.ReadRow(0, 0).Weight()
	}
	want := float64(n*reads) * 1e-3
	if flips == 0 {
		t.Fatal("transient BER 1e-3 produced no flips")
	}
	if math.Abs(float64(flips)-want) > 0.35*want {
		t.Fatalf("transient flips %d, want about %.0f", flips, want)
	}
}

func TestFailureProbabilityMonotone(t *testing.T) {
	m := DefaultRetention()
	prev := 0.0
	for mins := 1; mins <= 30; mins++ {
		p := m.FailureProbability(time.Duration(mins)*time.Minute, 80)
		if p < prev {
			t.Fatalf("BER not monotone at %d minutes", mins)
		}
		prev = p
	}
	lo := m.FailureProbability(2*time.Minute, 80)
	hi := m.FailureProbability(30*time.Minute, 80)
	if lo > 1e-5 {
		t.Errorf("BER at 2 minutes = %v, want ~1e-7", lo)
	}
	if hi < 0.05 {
		t.Errorf("BER at 30 minutes = %v, want >= 5%%", hi)
	}
}

func TestRetentionSecondsDeterministicAndDistinct(t *testing.T) {
	c := testChip(nil)
	a := c.RetentionSecondsOf(0, 3, 17)
	b := c.RetentionSecondsOf(0, 3, 17)
	if a != b {
		t.Fatal("per-cell retention must be deterministic")
	}
	if a <= 0 {
		t.Fatal("retention time must be positive")
	}
	other := c.RetentionSecondsOf(0, 3, 18)
	if a == other {
		t.Fatal("neighboring cells should draw distinct retention times")
	}
}

// weakCells returns the cells of a row whose retention time (at reference
// temperature) is below the given window: the cells that fail if left
// charged for that long.
func weakCells(c *Chip, bank, row int, window time.Duration) []int {
	var weak []int
	for i := 0; i < c.cfg.CellsPerRow; i++ {
		if c.RetentionSecondsOf(bank, row, i) < window.Seconds() {
			weak = append(weak, i)
		}
	}
	return weak
}

func TestWeakCellsMonotoneInWindow(t *testing.T) {
	c := testChip(nil)
	short := weakCells(c, 0, 0, 10*time.Minute)
	long := weakCells(c, 0, 0, 60*time.Minute)
	if len(short) > len(long) {
		t.Fatal("weak-cell set must grow with the window")
	}
	inLong := map[int]bool{}
	for _, cell := range long {
		inLong[cell] = true
	}
	for _, cell := range short {
		if !inLong[cell] {
			t.Fatal("weak cells must be nested across windows")
		}
	}
	// Consistency with actual decay: write all ones, pause, read; the
	// failed cells must be exactly the weak cells (up to VRT jitter, which
	// the default test chip config leaves at 2%).
	n := c.cfg.CellsPerRow
	c.WriteRow(0, 0, allOnes(n))
	c.PauseRefresh(60 * time.Minute)
	got := c.ReadRow(0, 0)
	failed := 0
	for i := 0; i < n; i++ {
		if !got.Get(i) {
			failed++
		}
	}
	if failed == 0 || abs(failed-len(long)) > 1+len(long)/5 {
		t.Fatalf("observed %d failures, weak-cell ground truth says %d", failed, len(long))
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

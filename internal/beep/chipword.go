package beep

import (
	"time"

	"repro/internal/core"
	"repro/internal/gf2"
)

// chipWord adapts one ECC word of a DRAM chip to the WordTester interface,
// so BEEP can profile real (simulated) hardware through the same public
// interface BEER uses: write the crafted dataword, pause refresh to induce
// retention errors, read back the post-correction data.
//
// The adapter needs the dataword layout (from BEER's §5.1.2 discovery) to
// place the pattern into the right row bytes, and it targets true-cell rows
// (CHARGED = logical 1), matching BEEP's §7.1 setting.
type chipWord struct {
	Chip   core.Chip
	Layout core.WordLayout
	Bank   int
	Row    int
	// Word indexes the ECC word within the row (region-major:
	// region*wordsPerRegion + wordInRegion).
	Word int
	// Window is the refresh pause applied per test; TempC the ambient
	// temperature.
	Window time.Duration
	TempC  float64
}

// Test implements WordTester.
func (cw *chipWord) Test(data gf2.Vec) gf2.Vec {
	k := cw.Layout.K()
	if data.Len() != k {
		panic("beep: dataword length does not match the chip layout")
	}
	cw.Chip.SetTemperature(cw.TempC)
	rowBytes := make([]byte, cw.Chip.DataBytesPerRow())
	// Bits of the target word; all other words in the row stay zero
	// (DISCHARGED in a true-cell row), so they cannot interfere.
	wordsPerRegion := len(cw.Layout.Words)
	region := cw.Word / wordsPerRegion
	wIn := cw.Word % wordsPerRegion
	base := region * cw.Layout.RegionBytes
	for bi, off := range cw.Layout.Words[wIn] {
		var by byte
		for bit := 0; bit < 8; bit++ {
			if data.Get(8*bi + bit) {
				by |= 1 << uint(bit)
			}
		}
		rowBytes[base+off] = by
	}
	cw.Chip.WriteRow(cw.Bank, cw.Row, rowBytes)
	cw.Chip.PauseRefresh(cw.Window)
	got := cw.Chip.ReadRow(cw.Bank, cw.Row)
	out := gf2.NewVec(k)
	for bi, off := range cw.Layout.Words[wIn] {
		by := got[base+off]
		for bit := 0; bit < 8; bit++ {
			if by>>uint(bit)&1 == 1 {
				out.Set(8*bi+bit, true)
			}
		}
	}
	return out
}

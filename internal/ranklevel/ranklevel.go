// Package ranklevel models DRAM rank-level ECC — the error correction that
// lives in the memory controller rather than on the DRAM die — and
// implements the paper's §4.1 baseline for determining an ECC function:
// direct syndrome extraction via bus-level error injection, the approach of
// Cojocar et al. [26] that BEER is contrasted against.
//
// The contrast matters because the baseline needs two capabilities that
// on-die ECC denies (paper §4.2):
//
//  1. physical access to the full codeword (the DDR bus carries data and
//     parity between controller and DIMM, so an interposer can flip any bit),
//  2. visibility of correction events and their syndromes (machine-check
//     architecture reports corrected-error syndromes for rank-level ECC).
//
// DirectRecovery exercises exactly that flow and recovers H column by
// column. BEER (internal/core) needs neither capability, which is why it —
// and not this baseline — works for on-die ECC. Entry points: New builds
// the simulated controller-side rank, DirectRecovery runs the baseline
// (examples/rank_level_baseline narrates it; figures' table1 summarizes the
// capability comparison).
package ranklevel

import (
	"fmt"

	"repro/internal/ecc"
	"repro/internal/gf2"
)

// event describes what the controller's ECC logic observed on one read,
// mirroring the corrected-error reporting of server memory controllers.
type event struct {
	// Detected is true when the syndrome was nonzero.
	Detected bool
	// Corrected is true when the syndrome matched a codeword bit and the
	// controller flipped it.
	Corrected bool
	// Syndrome is the raw error syndrome (exposed by rank-level ECC
	// hardware; on-die ECC never reveals this).
	Syndrome gf2.Vec
	// FlippedBit is the codeword position corrected, or -1.
	FlippedBit int
}

// Controller is a memory controller with SEC rank-level ECC over an
// abstracted DRAM rank. Data and parity travel over an observable "bus":
// faults can be injected into stored codewords at any bit position.
type Controller struct {
	code  *ecc.Code
	words []gf2.Vec
}

// New builds a controller with the given (secret) ECC function and a rank
// holding `words` codewords.
func New(code *ecc.Code, words int) *Controller {
	c := &Controller{code: code, words: make([]gf2.Vec, words)}
	for i := range c.words {
		c.words[i] = code.Encode(gf2.NewVec(code.K()))
	}
	return c
}

// write encodes and stores a dataword.
func (c *Controller) write(addr int, data gf2.Vec) {
	c.words[addr] = c.code.Encode(data)
}

// read decodes a stored codeword, returning the corrected data and the
// ECC event report.
func (c *Controller) read(addr int) (gf2.Vec, event) {
	res := c.code.Decode(c.words[addr])
	return res.Data, event{
		Detected:   !res.Syndrome.Zero(),
		Corrected:  res.FlippedBit >= 0,
		Syndrome:   res.Syndrome,
		FlippedBit: res.FlippedBit,
	}
}

// injectBusFault flips one stored codeword bit, modeling an interposer or
// fault injector on the DDR bus (the hardware capability Cojocar et al.
// rely on). bit may address parity positions — impossible for on-die ECC.
func (c *Controller) injectBusFault(addr, bit int) {
	if bit < 0 || bit >= c.code.N() {
		panic(fmt.Sprintf("ranklevel: bit %d out of codeword range %d", bit, c.code.N()))
	}
	c.words[addr].Flip(bit)
}

// DirectRecovery implements the paper's §4.1 systematic approach: for each
// codeword bit position, inject a 1-hot error and read; the reported
// syndrome is exactly that column of the parity-check matrix (Equation 2).
// Returns the reconstructed code and the number of injections used.
func DirectRecovery(c *Controller) (*ecc.Code, int, error) {
	n, k := c.code.N(), c.code.K()
	r := n - k
	h := gf2.NewMat(r, n)
	injections := 0
	for bit := 0; bit < n; bit++ {
		addr := bit % len(c.words)
		c.write(addr, gf2.NewVec(k)) // any codeword works: H*c = 0
		c.injectBusFault(addr, bit)
		injections++
		_, ev := c.read(addr)
		if !ev.Detected {
			return nil, injections, fmt.Errorf("ranklevel: injection at bit %d went undetected", bit)
		}
		h.SetCol(bit, ev.Syndrome)
	}
	// The recovered H is bit-exact, including the parity block; verify the
	// parity block is the identity (systematic code) before wrapping.
	p := h.SubMatrix(0, r, 0, k)
	if !h.SubMatrix(0, r, k, n).Equal(gf2.Identity(r)) {
		return nil, injections, fmt.Errorf("ranklevel: recovered parity block is not systematic")
	}
	code, err := ecc.New(p)
	if err != nil {
		return nil, injections, fmt.Errorf("ranklevel: recovered matrix invalid: %w", err)
	}
	return code, injections, nil
}

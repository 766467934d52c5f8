package main

import (
	"testing"

	"repro"
)

func TestVerifyLine(t *testing.T) {
	truth := repro.NewHammingCode(16, 1)
	other := repro.NewHammingCode(16, 2)
	third := repro.NewHammingCode(16, 3)
	for _, c := range []*repro.Code{other, third} {
		if c.EquivalentTo(truth) {
			t.Fatal("test codes are not distinct")
		}
	}
	for _, tc := range []struct {
		name   string
		res    repro.SolveResult
		line   string
		wantOK bool
	}{
		{"unique match", repro.SolveResult{Codes: []*repro.Code{truth}, Unique: true},
			"VERIFY: matches the chip's secret ECC function (up to parity relabeling)", true},
		{"unique mismatch", repro.SolveResult{Codes: []*repro.Code{other}, Unique: true},
			"VERIFY: MISMATCH against ground truth", false},
		{"first of two", repro.SolveResult{Codes: []*repro.Code{truth, other}},
			"VERIFY: ground truth is candidate 1 of 2", true},
		{"second of three", repro.SolveResult{Codes: []*repro.Code{other, truth, third}},
			"VERIFY: ground truth is candidate 2 of 3", false},
		{"none of two", repro.SolveResult{Codes: []*repro.Code{other, third}},
			"VERIFY: MISMATCH: ground truth is none of the 2 candidates", false},
		{"single, not exhausted", repro.SolveResult{Codes: []*repro.Code{truth}},
			"VERIFY: ground truth is candidate 1 of 1", true},
		{"no candidates", repro.SolveResult{},
			"VERIFY: MISMATCH: ground truth is none of the 0 candidates", false},
	} {
		line, ok := verifyLine(&tc.res, truth)
		if line != tc.line || ok != tc.wantOK {
			t.Errorf("%s: got (%q, %v), want (%q, %v)", tc.name, line, ok, tc.line, tc.wantOK)
		}
	}
}

package repro_test

import (
	"context"
	"testing"

	"repro"
	"repro/internal/einsim"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	chip := repro.SimulatedChip(repro.MfrA, 16, 3)
	rep, err := repro.NewPipeline(repro.WithFastWindows()).Recover(context.Background(), chip)
	if err != nil {
		t.Fatal(err)
	}
	if rep.K != 16 {
		t.Fatalf("discovered k=%d", rep.K)
	}
	if !rep.Result.Unique {
		t.Fatalf("expected unique recovery, got %d", len(rep.Result.Codes))
	}
	if !rep.Result.Codes[0].EquivalentTo(repro.GroundTruth(chip)) {
		t.Fatal("facade recovery mismatch")
	}
}

func TestFacadeCodeHelpers(t *testing.T) {
	if repro.Hamming74().N() != 7 {
		t.Fatal("Hamming74 wrong shape")
	}
	a := repro.NewHammingCode(32, 1)
	b := repro.NewHammingCode(32, 1)
	if !a.Equal(b) {
		t.Fatal("NewHammingCode not deterministic per seed")
	}
	if len(repro.OneChargedPatterns(8)) != 8 || len(repro.TwoChargedPatterns(8)) != 28 {
		t.Fatal("pattern helpers broken")
	}
}

func TestFacadeProfileAndSolve(t *testing.T) {
	code := repro.NewHammingCode(11, 7) // full-length (15,11)
	prof := repro.ExactProfile(code, repro.OneChargedPatterns(11))
	res, err := repro.NewPipeline(repro.WithParityBits(code.ParityBits())).Solve(context.Background(), prof)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unique || !res.Codes[0].EquivalentTo(code) {
		t.Fatal("facade solve failed")
	}
}

func TestFacadeBEEP(t *testing.T) {
	code := repro.NewHammingCode(26, 9)
	word := repro.SimulatedWord(code, []int{2, 9, 20}, 1.0, 4)
	pipe := repro.NewPipeline(repro.WithBEEPOptions(repro.BEEPOptions{
		Passes: 2, TrialsPerPattern: 1, WorstCaseNeighbors: true,
	}))
	out, err := pipe.ProfileWord(context.Background(), code, word, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range out.Identified {
		if c != 2 && c != 9 && c != 20 {
			t.Fatalf("false positive cell %d", c)
		}
	}
	if len(out.Identified) == 0 {
		t.Fatal("BEEP found nothing")
	}
}

func TestFacadeSimulate(t *testing.T) {
	res, err := repro.NewPipeline(repro.WithWorkers(1)).Simulate(context.Background(), einsim.Config{
		Code:    repro.Hamming74(),
		Pattern: einsim.PatternAllOnes,
		Model:   einsim.ModelUniform,
		RBER:    1e-2,
		Words:   20000,
	}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Words != 20000 || res.Correctable == 0 {
		t.Fatalf("implausible simulation result: %+v", res)
	}
}

func TestFacadeSimulateParallel(t *testing.T) {
	cfg := einsim.Config{
		Code:    repro.Hamming74(),
		Pattern: einsim.PatternAllOnes,
		Model:   einsim.ModelUniform,
		RBER:    1e-2,
		Words:   20000,
	}
	res, err := repro.NewPipeline().Simulate(context.Background(), cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Words != 20000 || res.Correctable == 0 {
		t.Fatalf("implausible simulation result: %+v", res)
	}
	// A 1-worker engine must reproduce the default engine bit for bit.
	serial, err := repro.NewEngine(1).Simulate(context.Background(), cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Correctable != res.Correctable || serial.Miscorrected != res.Miscorrected {
		t.Fatal("sharded simulation depends on worker count")
	}
}

func TestFacadeRecoverParallel(t *testing.T) {
	chips := repro.SimulatedChips(repro.MfrA, 16, 2, 3)
	rep, err := repro.NewPipeline(repro.WithFastWindows()).Recover(context.Background(), chips...)
	if err != nil {
		t.Fatal(err)
	}
	if rep.K != 16 || !rep.Result.Unique {
		t.Fatalf("parallel recovery failed: k=%d, %d candidates", rep.K, len(rep.Result.Codes))
	}
	if !rep.Result.Codes[0].EquivalentTo(repro.GroundTruth(repro.SimulatedChip(repro.MfrA, 16, 3))) {
		t.Fatal("parallel facade recovery mismatch")
	}
}

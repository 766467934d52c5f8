// Package repro is the public API of a from-scratch Go reproduction of
// "Bit-Exact ECC Recovery (BEER): Determining DRAM On-Die ECC Functions by
// Exploiting DRAM Data Retention Characteristics" (Patel et al., MICRO 2020).
//
// The package is a facade over the implementation packages:
//
//   - internal/core:   BEER itself — miscorrection profiles and the SAT-based
//     recovery of the on-die ECC parity-check matrix.
//   - internal/beep:   BEEP — bit-exact pre-correction error profiling using
//     a recovered ECC function.
//   - internal/ecc:    systematic single-error-correcting Hamming codes.
//   - internal/ondie:  simulated LPDDR4-like chips with secret on-die ECC.
//   - internal/dram:   the raw DRAM retention-error substrate.
//   - internal/einsim: EINSim-style word-level Monte-Carlo simulation.
//   - internal/parallel: the worker-pool experiment engine.
//   - internal/store:  the durable result store — a content-addressed
//     registry of recovered codes keyed by canonical profile hash (the
//     paper's §7 "BEER database") behind a pluggable backend interface.
//   - internal/service:  the beerd HTTP job service (cmd/beerd), with
//     persistent jobs and solver-result deduplication on top of the store.
//
// # Quick start
//
// The supported entry point is the context-aware Pipeline, configured with
// functional options:
//
//	chips := repro.SimulatedChips(repro.MfrB, 16, 2, 1)
//	pipe := repro.NewPipeline(repro.WithFastWindows())
//	report, err := pipe.Recover(ctx, chips...)
//	if err != nil { ... }
//	fmt.Println(report.Result.Codes[0].H()) // the chip's secret ECC function
//
// Cancelling ctx stops a run within one collection round; WithProgress
// streams stage/round/candidate events to the caller (the CLIs and the beerd
// job service consume them for live status).
//
// See examples/ for complete programs and DESIGN.md for the experiment map.
package repro

import (
	"math/rand/v2"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/noise"
	"repro/internal/ondie"
	"repro/internal/parallel"
	"repro/internal/sat"
)

// Re-exported types. These aliases are the supported public names; the
// internal packages remain implementation detail.
type (
	// Code is a systematic (n, k) single-error-correcting linear block code
	// in standard form, the representation of an on-die ECC function.
	Code = ecc.Code
	// Chip is the system-visible interface of a DRAM chip with on-die ECC —
	// everything BEER is permitted to touch.
	Chip = core.Chip
	// Manufacturer selects one of the simulated DRAM vendors (A, B, C).
	Manufacturer = ondie.Manufacturer
	// Pattern is a k-CHARGED test pattern.
	Pattern = core.Pattern
	// Profile is a miscorrection profile: the ECC-function fingerprint BEER
	// solves from.
	Profile = core.Profile
	// RecoverOptions is the legacy struct form of the pipeline
	// configuration; new code configures a Pipeline with functional options
	// instead (WithRecoverOptions accepts the struct form for migration).
	RecoverOptions = core.RecoverOptions
	// Report is the output of an end-to-end BEER run.
	Report = core.Report
	// SolveResult lists the code(s) consistent with a profile.
	SolveResult = core.Result
	// SolveCache short-circuits the solve stage for profiles whose canonical
	// hash (Profile.Hash) was solved before; install one with WithSolveCache.
	// internal/store provides the durable, content-addressed implementation.
	SolveCache = core.SolveCache
	// SolverBackend is the pluggable SAT engine behind recovery solves
	// (install a factory with WithSolverBackend): the in-process CDCL
	// solver by default, or a DIMACS-recording backend for export to
	// external solvers.
	SolverBackend = sat.Backend
	// PlanOptions tunes the adaptive pattern planner (WithPlanOptions).
	PlanOptions = core.PlanOptions
	// PlanInfo summarizes a planned recovery (Report.Plan): patterns used
	// vs. the full sweep, batch count, and whether the planner decided
	// early.
	PlanInfo = core.PlanInfo
	// NoiseModel is a per-bit Bernoulli observation-error model over
	// miscorrection profiles (HARP-style PBEM); install one with
	// WithNoiseModel to evaluate recovery under imperfect profiling.
	NoiseModel = noise.Model
	// NoisyOptions tunes the noise-tolerant drop-k solve path
	// (WithNoiseModel / WithMaxDrop).
	NoisyOptions = core.NoisyOptions
	// NoiseInfo reports a noisy recovery's drop-k outcome — retained vs
	// dropped entries, confidence, and support margin (SolveResult.Noise).
	NoiseInfo = core.NoiseInfo
	// BEEPOptions configures BEEP profiling.
	BEEPOptions = beep.Options
	// BEEPOutcome reports BEEP's findings for one word.
	BEEPOutcome = beep.Outcome
	// Engine is the parallel experiment engine: it shards simulations and
	// profile collection across a worker pool with per-shard seeded RNGs
	// (results are bit-identical for any worker count) and caches exact
	// miscorrection profiles.
	Engine = parallel.Engine
)

// Simulated manufacturers, mirroring the three anonymized vendors of the
// paper's 80-chip study.
const (
	MfrA = ondie.MfrA
	MfrB = ondie.MfrB
	MfrC = ondie.MfrC
)

// DimacsBackend is a recording SolverBackend that exports the accumulated
// CNF in DIMACS format (WriteDIMACS) while delegating solving to an inner
// backend; see NewDimacsBackend and WithSolverBackend.
type DimacsBackend = sat.Dimacs

// NewSolverBackend returns a fresh in-process CDCL SAT backend — what
// recovery solves use by default.
func NewSolverBackend() SolverBackend { return sat.New() }

// NewDimacsBackend returns a recording backend over the default in-process
// engine: solves behave identically, and the CNF every solve accumulated
// can be exported with WriteDIMACS for external SAT solvers.
func NewDimacsBackend() *DimacsBackend { return sat.NewDimacs(nil) }

// NewHammingCode returns a uniformly random systematic SEC Hamming code with
// k data bits, seeded deterministically.
func NewHammingCode(k int, seed uint64) *Code {
	return ecc.RandomHamming(k, rand.New(rand.NewPCG(seed, 0x1234)))
}

// Hamming74 returns the paper's running-example (7,4) Hamming code (Eq. 1).
func Hamming74() *Code { return ecc.Hamming74() }

// SimulatedChip builds a simulated DRAM chip with on-die ECC for the given
// manufacturer and dataword length (k must be a multiple of 8). The chip's
// ECC function is hidden behind the Chip interface; use GroundTruth to
// compare after recovery.
func SimulatedChip(m Manufacturer, k int, seed uint64) *ondie.Chip {
	rows := 192
	if m == MfrC {
		rows = 384 // half the rows are anti-cells
	}
	return ondie.MustNew(ondie.Config{
		Manufacturer:  m,
		DataBits:      k,
		Banks:         1,
		Rows:          rows,
		RegionsPerRow: 16,
		Seed:          seed,
	})
}

// SimulatedChips builds n same-model chips (same manufacturer, same secret
// ECC function, independent cells) for parallel profile collection, mirroring
// the paper's §6.3 observation that BEER parallelizes across chips.
func SimulatedChips(m Manufacturer, k, n int, seed uint64) []Chip {
	chips := make([]Chip, n)
	for i := range chips {
		chips[i] = SimulatedChip(m, k, seed+uint64(i))
	}
	return chips
}

// GroundTruth exposes a simulated chip's secret ECC function for validation.
// Real chips have no equivalent — that is the point of BEER.
func GroundTruth(chip *ondie.Chip) *Code { return chip.GroundTruthCode() }

// ExactProfile computes a known code's miscorrection profile analytically
// (no simulation) for the given pattern family — the oracle used by the
// paper's correctness evaluation (§6.1).
func ExactProfile(code *Code, patterns []Pattern) *Profile {
	return core.ExactProfile(code, patterns)
}

// OneChargedPatterns and TwoChargedPatterns generate the paper's test
// pattern families.
func OneChargedPatterns(k int) []Pattern { return core.OneCharged(k) }

// TwoChargedPatterns returns all 2-CHARGED patterns for k data bits.
func TwoChargedPatterns(k int) []Pattern { return core.TwoCharged(k) }

// SimulatedWord builds a BEEP-testable ECC word with the given error-prone
// cells, each failing with probability pErr per test when charged.
func SimulatedWord(code *Code, errorCells []int, pErr float64, seed uint64) *beep.SimWord {
	return &beep.SimWord{
		Code:       code,
		ErrorCells: errorCells,
		PErr:       pErr,
		Rng:        rand.New(rand.NewPCG(seed, 0x5EED)),
	}
}

// NewEngine builds a parallel experiment engine with the given worker-pool
// width (0 = all cores). DefaultEngine returns the shared process-wide one.
func NewEngine(workers int) *Engine { return parallel.New(workers) }

// DefaultEngine returns the shared parallel experiment engine.
func DefaultEngine() *Engine { return parallel.Default() }

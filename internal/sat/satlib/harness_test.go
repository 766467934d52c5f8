package satlib

// The harness lives in a test file: only the graded tests read the corpus.

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"io/fs"
	"sort"
	"strings"

	"repro/internal/sat"
)

//go:embed corpus/*.cnf
var corpusFS embed.FS

//go:embed grading.json
var gradingJSON []byte

// Instance is one corpus formula with its provenance and expected answer.
type Instance struct {
	// Name is the corpus file name without extension, e.g. "uf20-03".
	Name string
	// Grade is the difficulty class ("uf20", "uf50", "uuf50", "beer"),
	// keyed into grading.json.
	Grade string
	// Expect is the known satisfiability (from the generator's
	// "c expect SAT|UNSAT" stamp).
	Expect bool
	// CNF is the parsed formula.
	CNF *sat.CNF
}

// Grade is the regression contract for one difficulty class.
type Grade struct {
	// MaxConflicts is the per-instance conflict budget (sat.ErrBudget on
	// overrun counts as a failed instance, never as a skipped one).
	MaxConflicts int64 `json:"max_conflicts"`
	// MinPass is the fraction of the class's instances that must be
	// settled within budget, in [0,1]. A wrong answer fails the whole
	// class outright regardless of this fraction.
	MinPass float64 `json:"min_pass"`
}

// Grading returns the committed per-grade thresholds.
func Grading() (map[string]Grade, error) {
	var g map[string]Grade
	if err := json.Unmarshal(gradingJSON, &g); err != nil {
		return nil, fmt.Errorf("satlib: grading.json: %w", err)
	}
	return g, nil
}

// Load parses the committed corpus. Instances come back sorted by name;
// every instance's grade has an entry in grading.json (enforced here, so
// adding a file without a grading policy fails loudly).
func Load() ([]Instance, error) {
	grading, err := Grading()
	if err != nil {
		return nil, err
	}
	entries, err := fs.ReadDir(corpusFS, "corpus")
	if err != nil {
		return nil, fmt.Errorf("satlib: corpus: %w", err)
	}
	var out []Instance
	for _, e := range entries {
		data, err := fs.ReadFile(corpusFS, "corpus/"+e.Name())
		if err != nil {
			return nil, fmt.Errorf("satlib: %s: %w", e.Name(), err)
		}
		inst, err := parseInstance(e.Name(), data)
		if err != nil {
			return nil, err
		}
		if _, ok := grading[inst.Grade]; !ok {
			return nil, fmt.Errorf("satlib: %s: grade %q has no entry in grading.json", e.Name(), inst.Grade)
		}
		out = append(out, inst)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	if len(out) == 0 {
		return nil, fmt.Errorf("satlib: corpus is empty — run: go run ./internal/sat/satlib/gen")
	}
	return out, nil
}

// parseInstance decodes one corpus file: the formula via ParseDIMACS, the
// grade from the name prefix, the expectation from the generator's
// "c expect" stamp (name-prefix fallback: uuf means UNSAT).
func parseInstance(fileName string, data []byte) (Instance, error) {
	name := strings.TrimSuffix(fileName, ".cnf")
	cnf, err := sat.ParseDIMACS(bytes.NewReader(data))
	if err != nil {
		return Instance{}, fmt.Errorf("satlib: %s: %w", fileName, err)
	}
	inst := Instance{Name: name, Grade: gradeOf(name), CNF: cnf}
	switch {
	case bytes.Contains(data, []byte("c expect UNSAT")):
		inst.Expect = false
	case bytes.Contains(data, []byte("c expect SAT")):
		inst.Expect = true
	case strings.HasPrefix(name, "uuf"):
		inst.Expect = false
	default:
		return Instance{}, fmt.Errorf("satlib: %s: no \"c expect SAT|UNSAT\" stamp", fileName)
	}
	return inst, nil
}

// gradeOf maps an instance name to its difficulty class: the leading
// run up to the first '-' ("uf20-03" → "uf20", "beer-k8-final" → "beer").
func gradeOf(name string) string {
	head, _, _ := strings.Cut(name, "-")
	return head
}

// ByGrade groups instances by difficulty class.
func ByGrade(insts []Instance) map[string][]Instance {
	out := make(map[string][]Instance)
	for _, in := range insts {
		out[in.Grade] = append(out[in.Grade], in)
	}
	return out
}

package main

import (
	"errors"
	"strings"
	"testing"

	"repro"
	"repro/internal/service"
)

// tamper swaps the first two data columns of a code's P block: a different
// ECC function whenever those columns differ, which no relabeling of parity
// rows undoes.
func tamper(t *testing.T, code *repro.Code) (*repro.Code, string) {
	t.Helper()
	text, err := code.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(text)), "\n")
	for i := 1; i < len(lines); i++ {
		row := []byte(lines[i])
		row[0], row[1] = row[1], row[0]
		lines[i] = string(row)
	}
	out := strings.Join(lines, "\n") + "\n"
	tampered := new(repro.Code)
	if err := tampered.UnmarshalText([]byte(out)); err != nil {
		t.Fatal(err)
	}
	if tampered.EquivalentTo(code) {
		t.Fatal("tampering left the code equivalent; pick other columns")
	}
	return tampered, out
}

func TestOracleRejectsTamperedCode(t *testing.T) {
	truth := repro.GroundTruth(repro.SimulatedChip(repro.MfrA, 8, truthSeed))
	tampered, text := tamper(t, truth)
	var abort *abortError

	if err := checkCode(truth, truth, "truth"); err != nil {
		t.Errorf("library oracle rejected the true code: %v", err)
	}
	if err := checkCode(tampered, truth, "tampered"); !errors.As(err, &abort) {
		t.Errorf("library oracle accepted a tampered code: %v", err)
	}

	good, err := truth.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	yes, no := true, false
	s := &serveSystem{truth: map[string]*repro.Code{truthKey("A", 8): truth}}
	spec := service.JobSpec{Manufacturer: "A", K: 8}
	for _, tc := range []struct {
		name  string
		res   *service.RecoverResult
		wrong bool // aborts the run
		ok    bool
	}{
		{"true code", &service.RecoverResult{Unique: true, GroundTruthMatch: &yes, Code: string(good)}, false, true},
		{"tampered code beerd vouched for", &service.RecoverResult{Unique: true, GroundTruthMatch: &yes, Code: text}, true, false},
		{"beerd reports a mismatch", &service.RecoverResult{Unique: true, GroundTruthMatch: &no, Code: string(good)}, true, false},
		{"not unique", &service.RecoverResult{Unique: false, Candidates: 2, GroundTruthMatch: &yes, Code: string(good)}, false, false},
		{"unverified", &service.RecoverResult{Unique: true, Code: string(good)}, false, false},
		{"no recovery", nil, false, false},
	} {
		err := s.verify(spec, tc.res)
		if got := errors.As(err, &abort); got != tc.wrong {
			t.Errorf("%s: wrong-code abort = %t, want %t (err %v)", tc.name, got, tc.wrong, err)
		}
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok %t", tc.name, err, tc.ok)
		}
	}
	if err := s.verify(spec, &service.RecoverResult{Unique: false, GroundTruthMatch: &yes}); !errors.Is(err, errNotUnique) {
		t.Errorf("non-unique result is not errNotUnique: %v", err)
	}
}

package core

import (
	"testing"
)

func TestOneCharged(t *testing.T) {
	ps := OneCharged(4)
	if len(ps) != 4 {
		t.Fatalf("len = %d", len(ps))
	}
	for i, p := range ps {
		if p.weight() != 1 || !p.Has(i) {
			t.Fatalf("pattern %d = %v", i, p)
		}
	}
}

func TestTwoChargedCount(t *testing.T) {
	ps := TwoCharged(8)
	if len(ps) != 28 {
		t.Fatalf("len = %d, want C(8,2)=28", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if p.weight() != 2 {
			t.Fatalf("pattern %v has weight %d", p, p.weight())
		}
		if seen[p.String()] {
			t.Fatalf("duplicate pattern %v", p)
		}
		seen[p.String()] = true
	}
}

func TestNCharged(t *testing.T) {
	if got := len(nCharged(6, 3)); got != 20 {
		t.Fatalf("C(6,3) = %d, want 20", got)
	}
	if got := len(nCharged(5, 0)); got != 1 {
		t.Fatalf("C(5,0) = %d, want 1", got)
	}
	if nCharged(3, 4) != nil {
		t.Fatal("w > k should produce no patterns")
	}
	// nCharged(k, 1) must agree with OneCharged.
	a, b := nCharged(7, 1), OneCharged(7)
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("NCharged/OneCharged disagree at %d", i)
		}
	}
	// nCharged(k, 2) must agree with TwoCharged.
	c, d := nCharged(6, 2), TwoCharged(6)
	if len(c) != len(d) {
		t.Fatalf("lengths differ: %d vs %d", len(c), len(d))
	}
	for i := range c {
		if c[i].String() != d[i].String() {
			t.Fatalf("NCharged/TwoCharged disagree at %d", i)
		}
	}
}

func TestPatternDedupAndOrder(t *testing.T) {
	p := newPattern(5, 1, 5, 3)
	got := p.Charged()
	want := []int{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("Charged = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Charged = %v, want %v", got, want)
		}
	}
	if !p.Has(3) || p.Has(2) {
		t.Fatal("Has is wrong")
	}
	if p.String() != "C{1,3,5}" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestPatternSets(t *testing.T) {
	k := 6
	if got := len(Set1.Patterns(k)); got != 6 {
		t.Fatalf("Set1: %d", got)
	}
	if got := len(Set2.Patterns(k)); got != 15 {
		t.Fatalf("Set2: %d", got)
	}
	if got := len(Set3.Patterns(k)); got != 20 {
		t.Fatalf("Set3: %d", got)
	}
	if got := len(Set12.Patterns(k)); got != 21 {
		t.Fatalf("Set12: %d", got)
	}
	names := map[PatternSet]string{Set1: "1-CHARGED", Set2: "2-CHARGED", Set3: "3-CHARGED", Set12: "{1,2}-CHARGED"}
	for ps, want := range names {
		if ps.String() != want {
			t.Fatalf("String(%d) = %q", int(ps), ps.String())
		}
	}
}

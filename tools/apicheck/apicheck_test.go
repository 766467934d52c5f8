package apicheck

import (
	"bufio"
	"os"
	"reflect"
	"strings"
	"testing"
)

// inRepro selects the packages whose exported API must have callers: the
// repro facade and everything under repro/internal.
func inRepro(path string) bool {
	return path == "repro" || strings.HasPrefix(path, "repro/internal/")
}

// readAllowlist parses allowlist.txt: "name reason" per line, # comments.
func readAllowlist(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if reason = strings.TrimSpace(reason); reason == "" {
			t.Errorf("allowlist entry %s gives no reason", name)
		}
		if _, dup := allow[name]; dup {
			t.Errorf("allowlist lists %s twice", name)
		}
		allow[name] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

// TestExportedAPIHasCallers type-checks the root module and the bench
// module and fails on every exported name of the facade or an internal
// package that no non-test file outside its package uses, unless
// allowlist.txt keeps it with a reason. A name used only inside its own
// package should be unexported; one used only by tests should move into a
// _test.go file or go.
func TestExportedAPIHasCallers(t *testing.T) {
	findings, err := Check([]string{"../..", "../../bench"}, inRepro)
	if err != nil {
		t.Fatal(err)
	}
	allow := readAllowlist(t)
	perClass := map[Class]int{}
	for _, f := range findings {
		perClass[f.Class]++
		if _, ok := allow[f.Name]; ok {
			delete(allow, f.Name)
			continue
		}
		t.Errorf("%s: %s; unexport it, move it into a test file, delete it, or allowlist it with a reason", f.Name, f.Class)
	}
	for name := range allow {
		t.Errorf("allowlist entry %s is no longer a finding; remove it", name)
	}
	t.Logf("findings: %d no caller, %d test only, %d own package (all allowlisted when the test passes)",
		perClass[NoCaller], perClass[TestOnly], perClass[OwnPackage])
}

// TestCheckerFixture runs the checker on a small module with one name of
// each kind: only the unused export and the test-only export are
// findings; the method reached through an interface and the type reached
// through a used signature are not.
func TestCheckerFixture(t *testing.T) {
	got, err := Check([]string{"testdata/fixture"}, func(path string) bool {
		return strings.HasPrefix(path, "fixture/internal/")
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []Finding{
		{Name: "fixture/internal/lib.TestOnly", Class: TestOnly},
		{Name: "fixture/internal/lib.Unused", Class: NoCaller},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("findings %+v, want %+v", got, want)
	}
}

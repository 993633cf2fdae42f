package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"corrfuselint/analyzers"
	"corrfuselint/lint"
)

// TestRepoClean asserts the repository itself carries zero findings, so
// the suite is enforced rather than aspirational: a change that
// introduces a finding must fix it or suppress it with a written reason.
func TestRepoClean(t *testing.T) {
	prog, err := lint.Load("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	diags, err := prog.Run(analyzers.All())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

func tempOut(t *testing.T, name string) *os.File {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), name))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestDriverList(t *testing.T) {
	out, errOut := tempOut(t, "out"), tempOut(t, "err")
	if code := run([]string{"-list"}, out, errOut); code != 0 {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	raw, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range analyzers.All() {
		if !strings.Contains(string(raw), a.Name) {
			t.Errorf("-list output missing analyzer %s:\n%s", a.Name, raw)
		}
	}
}

func TestDriverUnknownAnalyzer(t *testing.T) {
	out, errOut := tempOut(t, "out"), tempOut(t, "err")
	if code := run([]string{"-only", "nosuch"}, out, errOut); code != 2 {
		t.Fatalf("-only nosuch exit = %d, want 2", code)
	}
	raw, err := os.ReadFile(errOut.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `unknown analyzer "nosuch"`) {
		t.Errorf("stderr = %q, want unknown-analyzer error", raw)
	}
}

// TestDriverFindingsExit runs the driver against a fixture module known
// to contain findings and checks the failing exit code and output shape.
func TestDriverFindingsExit(t *testing.T) {
	out, errOut := tempOut(t, "out"), tempOut(t, "err")
	code := run([]string{"-dir", "analyzers/errswallow/fixtures", "-only", "errswallow"}, out, errOut)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 on a fixture with findings", code)
	}
	raw, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "error result of Encode is discarded") {
		t.Errorf("stdout missing the re-introduced writeJSON-style finding:\n%s", raw)
	}
	if !strings.Contains(string(raw), "matched no errswallow diagnostic") {
		t.Errorf("stdout missing the fixture's stale //lint:ignore directive:\n%s", raw)
	}
	// A directive is judged only against analyzers that ran: with errswallow
	// excluded, its directives — stale or not — are nobody's business.
	if code := run([]string{"-dir", "analyzers/errswallow/fixtures", "-only", "ctxflow"}, out, errOut); code != 0 {
		t.Fatalf("-only ctxflow exit = %d, want 0: errswallow directives judged without errswallow running", code)
	}
}

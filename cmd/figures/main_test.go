package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-execute this binary as the figures command:
// with FIGURES_RUN_MAIN set, the arguments after "--" go to main.
func TestMain(m *testing.M) {
	if os.Getenv("FIGURES_RUN_MAIN") == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{"figures"}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnknownFigRejected: an unknown -fig value exits 2 and names every
// valid value, so a typo in a gate cannot pass by running nothing.
func TestUnknownFigRejected(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^$", "--", "-fig", "bogus")
	cmd.Env = append(os.Environ(), "FIGURES_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-fig bogus: err %v, want exit status 2; output:\n%s", err, out)
	}
	for _, name := range figNames {
		if !strings.Contains(string(out), name) {
			t.Errorf("error output does not list %q:\n%s", name, out)
		}
	}
}

// TestCheckFig accepts exactly the listed names.
func TestCheckFig(t *testing.T) {
	for _, name := range figNames {
		if err := checkFig(name); err != nil {
			t.Errorf("checkFig(%q) = %v, want nil", name, err)
		}
	}
	for _, bad := range []string{"", "bogus", "1cell", "A1"} {
		if checkFig(bad) == nil {
			t.Errorf("checkFig(%q) accepted an unknown value", bad)
		}
	}
}

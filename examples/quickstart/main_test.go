package main

import (
	"os"
	"strings"
	"testing"
)

// TestQuickstart runs the program and checks its two invariants: every
// increment lands and transfers conserve money.
func TestQuickstart(t *testing.T) {
	out := stdoutOf(t, main)
	for _, want := range []string{"counter = 4000 (", "account total = 800 ("} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// stdoutOf returns what f writes to standard output.
func stdoutOf(t *testing.T, f func()) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stdout
	os.Stdout = tmp
	f()
	os.Stdout = saved
	b, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

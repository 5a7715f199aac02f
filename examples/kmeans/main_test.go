package main

import (
	"os"
	"regexp"
	"strconv"
	"testing"
)

// clusterLine matches the final report's per-cluster point count.
var clusterLine = regexp.MustCompile(`(?m)^  cluster \d+: .*  (\d+) points$`)

// TestKmeans runs the clustering and checks that the last iteration's
// per-cluster point counts add up to the input: every point's accumulator
// update committed exactly once.
func TestKmeans(t *testing.T) {
	out := stdoutOf(t, main)
	lines := clusterLine.FindAllStringSubmatch(out, -1)
	if len(lines) != k {
		t.Fatalf("%d cluster lines, want %d:\n%s", len(lines), k, out)
	}
	sum := 0
	for _, l := range lines {
		n, _ := strconv.Atoi(l[1])
		sum += n
	}
	if sum != npoints {
		t.Fatalf("cluster counts sum to %d, want %d:\n%s", sum, npoints, out)
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

package main

import "testing"

// TestBank runs the four-phase workflow. Every audit transaction checks
// that transfers conserve money and stops the program with log.Fatal when
// they do not, so returning is the test.
func TestBank(t *testing.T) { main() }

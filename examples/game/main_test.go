package main

import "testing"

// TestGame runs the frame loop unguided and guided; a failed transaction
// stops the program with log.Fatal, so returning is the test.
func TestGame(t *testing.T) { main() }

package main

import "testing"

// TestExample runs the example end to end; a failed verdict exits non-zero
// through log.Fatal and fails the test.
func TestExample(t *testing.T) { main() }

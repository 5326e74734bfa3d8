package store

import (
	"os"
	"testing"
)

// TestMain removes the directories the E9 and E11 benchmarks build once
// per binary run and share across tests and benchmarks.
func TestMain(m *testing.M) {
	code := m.Run()
	for _, dir := range []string{e9DirCache, e11V1Cache, e11V2Cache} {
		if dir != "" {
			os.RemoveAll(dir)
		}
	}
	os.Exit(code)
}

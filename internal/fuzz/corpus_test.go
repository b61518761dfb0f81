package fuzz

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The committed corpus is a permanent regression suite: every minimized
// finding ever recorded must keep reproducing its referee exactly, and —
// for findings that only exist under a sabotage mutation — the same
// program must keep running clean at head (the bug stays fixed).
func TestCorpusReplays(t *testing.T) {
	entries, err := os.ReadDir("corpus")
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".repro") {
			continue
		}
		seen++
		t.Run(e.Name(), func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("corpus", e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			f, err := ParseFinding(string(data))
			if err != nil {
				t.Fatalf("artifact does not parse: %v", err)
			}
			nf := Replay(f)
			if nf == nil {
				t.Fatalf("recorded %s finding no longer reproduces", f.Referee)
			}
			if nf.Referee != f.Referee {
				t.Fatalf("referee drifted: recorded %s, observed %s: %s",
					f.Referee, nf.Referee, nf.Detail)
			}
			if f.Mutation != MutNone {
				// The finding needed a sabotaged compiler to exist; the
				// unmutated compiler must still handle the program cleanly.
				if clean, _ := CheckProgram(f.Program, []RunConfig{f.Config}, MutNone); clean != nil {
					t.Fatalf("program fails even without the %s mutation: %s: %s",
						f.Mutation, clean.Referee, clean.Detail)
				}
			}
		})
	}
	if seen == 0 {
		t.Fatal("corpus directory holds no .repro artifacts")
	}
}

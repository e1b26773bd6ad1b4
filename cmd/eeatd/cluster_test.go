package main

import (
	"fmt"
	"strings"
	"testing"

	"xlate/internal/obsflags"
)

// runDevCluster refuses flag combinations it cannot honour with exit 2
// before it starts any worker.
func TestDevClusterRefusesUnsupportedFlags(t *testing.T) {
	cases := []struct {
		name   string
		ingest string
		want   string
	}{
		{"ingest without store", "run.xltrace", "-ingest needs -trace-store"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var log strings.Builder
			o := clusterOpts{
				n: 2, exp: "fig2", instrs: 400_000, scale: 0.1, seed: 7,
				ingest: tc.ingest, obs: &obsflags.Flags{},
				logf: func(f string, args ...any) { fmt.Fprintf(&log, f+"\n", args...) },
			}
			if code := runDevCluster(o); code != 2 {
				t.Fatalf("exit %d, want 2 (log: %s)", code, log.String())
			}
			if !strings.Contains(log.String(), tc.want) {
				t.Fatalf("log %q does not say %q", log.String(), tc.want)
			}
		})
	}
}

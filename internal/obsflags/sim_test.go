package obsflags

import (
	"errors"
	"testing"
)

// TestSimExecutorChecks pins how the trace flags combine: a compiling
// run needs a store everywhere, a store alone is a usage error except in
// the daemon (where it enables ingestion), and without a store the
// executor is the zero one, which runs model cells live.
func TestSimExecutorChecks(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name      string
		sim       Sim
		wantUsage bool
		wantStore bool
	}{
		{"no trace flags", Sim{}, false, false},
		{"compile without store", Sim{CompileTraces: true}, true, false},
		{"store without compile", Sim{TraceStore: dir}, true, false},
		{"compile with store", Sim{TraceStore: dir, CompileTraces: true}, false, true},
		{"daemon: compile without store", Sim{CompileTraces: true, daemon: true}, true, false},
		{"daemon: store alone", Sim{TraceStore: dir, daemon: true}, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ex, err := tc.sim.Executor(nil)
			if tc.wantUsage {
				if !errors.Is(err, ErrUsage) {
					t.Fatalf("Executor() = %v, want ErrUsage", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if (ex.Store != nil) != tc.wantStore || ex.CompileModels != tc.sim.CompileTraces {
				t.Errorf("Executor() = {Store: %v, CompileModels: %v}, want store %v", ex.Store, ex.CompileModels, tc.wantStore)
			}
		})
	}
	if _, _, err := (&Sim{Inject: "no-such-fault"}).Integrity(); !errors.Is(err, ErrUsage) {
		t.Errorf("Integrity() with a malformed -inject = %v, want ErrUsage", err)
	}
}

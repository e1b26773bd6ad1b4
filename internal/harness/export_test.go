package harness

import "xlate/internal/exper"

// Test-only exports for the external journal fuzz target, which also
// drives the cluster coordinator's vocabulary and so cannot live in
// this package.

var CheckpointFormat = checkpointFormat

func ReplayJournal[R any](data []byte, path string, f JournalFormat[R], opt exper.Options) ([]R, int64, error) {
	return replayJournal(data, path, f, opt)
}

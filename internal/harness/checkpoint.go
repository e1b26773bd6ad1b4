package harness

import (
	"fmt"

	"xlate/internal/core"
)

// The suite checkpoint is a journal (journal.go) of completed cells,
// one {key, result} record per line. Failed cells are never journaled,
// so a resumed run retries them. Go's encoding/json emits the shortest
// float64 representation, which round-trips exactly — resumed results
// render byte-identical tables.

// checkpointFormat is the suite checkpoint's record vocabulary.
// Version 2 added the header's kind; a version-1 checkpoint is refused
// with ErrJournalMismatch.
var checkpointFormat = JournalFormat[checkpointCell]{
	Kind:    "suite",
	Version: 2,
	Check: func(c checkpointCell) error {
		if c.Key == "" || c.Result == nil {
			return fmt.Errorf("cell record missing key or result: %w", ErrJournalCorrupt)
		}
		return nil
	},
}

// checkpointCell is one completed cell: its canonical key and result.
type checkpointCell struct {
	Key    string       `json:"key"`
	Result *core.Result `json:"result"`
}

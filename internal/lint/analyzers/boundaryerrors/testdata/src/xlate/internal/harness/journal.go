// Package harness is the journal-loader fixture: the suite checkpoint
// and the cluster coordinator both classify a loaded journal as
// heal-vs-refuse with errors.Is, so journal code here must wrap its
// sentinels with %w even though harness is not an API boundary.
package harness

import (
	"errors"
	"fmt"
)

// ErrJournalCorrupt is the fixture's loader sentinel.
var ErrJournalCorrupt = errors.New("harness: journal corrupt")

// Journal is a generic journal; its methods are journal code by their
// receiver.
type Journal[R any] struct{ path string }

// OpenJournal wraps the sentinel: allowed.
func OpenJournal(path string, damaged bool) error {
	if damaged {
		return fmt.Errorf("harness: journal %s: unreadable line 3: %w", path, ErrJournalCorrupt)
	}
	return nil
}

// replayJournal is unexported journal code that drops the sentinel: a
// resumed suite could no longer tell damage from a mismatch.
func replayJournal(path string) error {
	return fmt.Errorf("harness: journal %s: unreadable line 3", path) // want "fmt.Errorf without %w at the API boundary"
}

// Append is journal code by its generic receiver and mints an ad-hoc
// error.
func (j *Journal[R]) Append(rec R) error {
	return errors.New("harness: journal " + j.path + " refused a record") // want "ad-hoc errors.New at the API boundary"
}

// Run is exported but neither journal code nor an API boundary: out of
// scope.
func Run() error {
	return fmt.Errorf("harness: suite failed")
}

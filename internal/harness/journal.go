package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"xlate/internal/exper"
)

// The journal (DESIGN.md §6, §12) is the one durable record of
// completed work: an append-only JSONL file holding a header line that
// binds it to a record vocabulary and the run options, then one record
// per line. Every append is a single write followed by fsync, so a
// record is durable the moment Append returns and a crash at any
// instant tears at most the final line. Two vocabularies sit on it:
// the suite checkpoint's completed cells and the cluster coordinator's
// cell and membership events. Each caller decodes and applies its own
// records; the journal only knows their shape is checked.
//
// One loader rule serves both. A torn or garbage tail is healed —
// truncated back to the last valid record — because those bytes were
// never durably acknowledged and losing them costs only re-execution.
// An unreadable line above a later valid record refuses with
// ErrJournalCorrupt: healing it would silently drop a record that
// demonstrably reached the disk, which is the lie the journal exists
// to make impossible. A header written for another vocabulary, version
// or set of options refuses with ErrJournalMismatch, since its records
// would be silently wrong for this run.

// ErrJournalCorrupt marks a journal whose middle is damaged: an
// unreadable line with a valid record after it. Loading refuses —
// continuing would silently drop completed work.
var ErrJournalCorrupt = errors.New("harness: journal corrupt")

// ErrJournalMismatch marks a journal written for a different record
// vocabulary, version, or run options.
var ErrJournalMismatch = errors.New("harness: journal mismatch")

// ErrJournalClosed marks an append against a closed journal.
var ErrJournalClosed = errors.New("harness: journal closed")

// JournalFormat names one record vocabulary. Kind and Version are
// written to the header; bump Version whenever the record shape
// changes, so an older file is refused instead of misread.
type JournalFormat[R any] struct {
	Kind    string
	Version int
	// Check reports a decoded record whose shape is invalid (a missing
	// required field, an unknown event). Records are decoded strictly
	// first: unknown fields and trailing data are already rejected.
	Check func(R) error
}

// journalHeader is the first line of every journal.
type journalHeader struct {
	Version int     `json:"version"`
	Kind    string  `json:"kind"`
	Instrs  uint64  `json:"instrs"`
	Scale   float64 `json:"scale"`
	Seed    int64   `json:"seed"`
}

// Journal is an open journal accepting durable appends of records of
// type R. Append is safe for concurrent use.
type Journal[R any] struct {
	path string

	mu sync.Mutex
	f  *os.File
	// write and truncate are f.Write and f.Truncate, the file seam: a
	// test substitutes a write that fails partway through a record.
	write    func([]byte) (int, error)
	truncate func(int64) error
	size     int64 // bytes of complete, valid lines on disk
	err      error // once set, every Append fails with it
}

// OpenJournal loads the journal at path under format f and options
// opt, returning its durable records in file order, and opens it for
// appends. A missing or empty file, or a torn header with nothing
// durable after it, starts a fresh journal whose header is written
// immediately. A torn or garbage tail is truncated away (and the heal
// fsynced) before the first append, so no later record can glue onto a
// partial line; logf hears about it.
func OpenJournal[R any](path string, f JournalFormat[R], opt exper.Options, logf func(string, ...any)) (*Journal[R], []R, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("harness: reading journal %s: %w", path, err)
	}
	recs, keep, err := replayJournal(data, path, f, opt)
	if err != nil {
		return nil, nil, err
	}
	file, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("harness: opening journal: %w", err)
	}
	j := &Journal[R]{path: path, f: file, write: file.Write, truncate: file.Truncate, size: keep}
	if healed := int64(len(data)) - keep; healed > 0 {
		if err := file.Truncate(keep); err == nil {
			err = file.Sync()
		}
		if err != nil {
			file.Close()
			return nil, nil, fmt.Errorf("harness: healing journal %s: %w", path, err)
		}
		logf("journal %s: healed %d torn trailing bytes", path, healed)
	}
	if keep == 0 {
		hdr, err := json.Marshal(journalHeader{
			Version: f.Version, Kind: f.Kind, Instrs: opt.Instrs, Scale: opt.Scale, Seed: opt.Seed,
		})
		if err == nil {
			err = j.appendLine(hdr)
		}
		if err != nil {
			file.Close()
			return nil, nil, fmt.Errorf("harness: journal %s: writing header: %w", path, err)
		}
	}
	syncDir(filepath.Dir(path))
	return j, recs, nil
}

// replayJournal validates journal bytes under format f and options
// opt, returning the records of the durable prefix and that prefix's
// byte length — the length the file is truncated to before appending.
func replayJournal[R any](data []byte, path string, f JournalFormat[R], opt exper.Options) ([]R, int64, error) {
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		// Empty file, or a header torn mid-write before anything was
		// acknowledged: a fresh journal either way.
		return nil, 0, nil
	}
	var hdr journalHeader
	if err := decodeJournalLine(data[:i], &hdr); err != nil {
		if nextJournalRecord(data[i+1:], f) {
			return nil, 0, fmt.Errorf("harness: journal %s: unreadable header above a valid record: %w",
				path, ErrJournalCorrupt)
		}
		return nil, 0, nil // garbage with nothing durable after it: start fresh
	}
	if hdr.Version != f.Version || hdr.Kind != f.Kind {
		return nil, 0, fmt.Errorf("harness: journal %s: %q version %d, want %q version %d: %w",
			path, hdr.Kind, hdr.Version, f.Kind, f.Version, ErrJournalMismatch)
	}
	if hdr.Instrs != opt.Instrs || hdr.Scale != opt.Scale || hdr.Seed != opt.Seed {
		return nil, 0, fmt.Errorf("harness: journal %s was written with -instrs %d -scale %g -seed %d; rerun with those options or delete it: %w",
			path, hdr.Instrs, hdr.Scale, hdr.Seed, ErrJournalMismatch)
	}

	var recs []R
	off := i + 1
	for line := 2; off < len(data); line++ {
		rest := data[off:]
		n := bytes.IndexByte(rest, '\n')
		if n < 0 {
			break // torn final line: heal
		}
		rec, err := decodeJournalRecord(rest[:n], f)
		if err != nil {
			if nextJournalRecord(rest[n+1:], f) {
				return nil, 0, fmt.Errorf("harness: journal %s: unreadable line %d (%v) above a valid record: %w",
					path, line, err, ErrJournalCorrupt)
			}
			break // garbage tail with nothing durable after it: heal
		}
		recs = append(recs, rec)
		off += n + 1
	}
	return recs, int64(off), nil
}

// decodeJournalRecord strictly decodes one record line and checks its
// shape.
func decodeJournalRecord[R any](line []byte, f JournalFormat[R]) (R, error) {
	var rec R
	if err := decodeJournalLine(line, &rec); err != nil {
		return rec, err
	}
	if err := f.Check(rec); err != nil {
		return rec, fmt.Errorf("harness: journal record: %w", err)
	}
	return rec, nil
}

// nextJournalRecord reports whether any complete line of rest is a
// valid record — the witness that damage sits in the middle of the
// journal, not at its torn tail.
func nextJournalRecord[R any](rest []byte, f JournalFormat[R]) bool {
	for {
		n := bytes.IndexByte(rest, '\n')
		if n < 0 {
			return false
		}
		if _, err := decodeJournalRecord(rest[:n], f); err == nil {
			return true
		}
		rest = rest[n+1:]
	}
}

// decodeJournalLine decodes one JSON document, rejecting unknown fields and
// trailing data, so a header never passes as a record, nor a record of
// one vocabulary as a record of another.
func decodeJournalLine(line []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("harness: journal line: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("harness: journal line has trailing data: %w", ErrJournalCorrupt)
	}
	return nil
}

// Append writes one record as a line and fsyncs it: when Append
// returns nil the record is on disk. A failed append is rolled back to
// the last complete line, so the next append starts on a clean line
// boundary; if even the rollback fails, the journal refuses every
// later append rather than glue records onto a partial line.
func (j *Journal[R]) Append(rec R) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("harness: journal %s: encoding record: %w", j.path, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	//eeatlint:allow locksafe the journal mutex exists to serialize the file write; the fsync is the critical section
	return j.appendLine(b)
}

// appendLine writes line plus a newline and fsyncs; j.mu is held (or
// the journal is not yet shared).
func (j *Journal[R]) appendLine(line []byte) error {
	if j.err != nil {
		return fmt.Errorf("harness: journal %s: %w", j.path, j.err)
	}
	buf := make([]byte, 0, len(line)+1)
	buf = append(buf, line...)
	buf = append(buf, '\n')
	_, err := j.write(buf)
	if err == nil {
		err = j.f.Sync()
	}
	if err != nil {
		if terr := j.truncate(j.size); terr != nil {
			j.err = fmt.Errorf("rolling back a failed append: %w", terr)
		}
		return fmt.Errorf("harness: journal %s: append: %w", j.path, err)
	}
	j.size += int64(len(buf))
	return nil
}

// Close releases the file handle; later appends fail with
// ErrJournalClosed. The contents are already durable, and closing
// twice is harmless.
func (j *Journal[R]) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if errors.Is(j.err, ErrJournalClosed) {
		return nil
	}
	j.err = ErrJournalClosed
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("harness: closing journal %s: %w", j.path, err)
	}
	return nil
}

// Remove closes the journal and deletes its file, retiring the journal
// after a fully successful run.
func (j *Journal[R]) Remove() error {
	j.Close() //nolint:errcheck // the file is removed next
	if err := os.Remove(j.path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("harness: removing journal %s: %w", j.path, err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-created entry is durable. Errors
// are ignored: some filesystems reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync() //nolint:errcheck // best-effort durability of the entry
	d.Close()
}

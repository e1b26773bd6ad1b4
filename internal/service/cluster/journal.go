package cluster

import (
	"fmt"
	"sync/atomic"

	"xlate/internal/core"
	"xlate/internal/exper"
	"xlate/internal/harness"
)

// The coordinator journal (DESIGN.md §12) is what makes the
// coordinator itself expendable: a harness journal (one fsync'd
// append per record, one heal-or-refuse loader shared with the suite
// checkpoint) holding one record per completed cell and per
// worker-membership event, in the order they were committed. A
// restarted coordinator replays it to rebuild the completed-cell set
// and the last known ring membership, requeues only what is missing,
// and finishes the suite — no manual -resume, no re-executed cell.

// journal record events.
const (
	evCell  = "cell"
	evJoin  = "join"
	evLeave = "leave"
	evDead  = "dead"
)

// journalFormat is the coordinator journal's record vocabulary.
// Version 2 added the header's kind; a version-1 journal is refused
// with harness.ErrJournalMismatch.
var journalFormat = harness.JournalFormat[journalRecord]{
	Kind:    "cluster",
	Version: 2,
	Check:   checkRecord,
}

// JournalFormat returns the coordinator journal's record vocabulary,
// so journal-level tests can drive the real cluster records through
// the harness loader.
func JournalFormat() harness.JournalFormat[journalRecord] { return journalFormat }

// journalRecord is one journal line after the header.
type journalRecord struct {
	Event  string       `json:"event"`
	Key    string       `json:"key,omitempty"`
	Result *core.Result `json:"result,omitempty"`
	Worker string       `json:"worker,omitempty"`
	Addr   string       `json:"addr,omitempty"`
}

// memberState is a worker's last journaled membership state.
type memberState struct {
	addr  string
	alive bool
}

// replayState is everything a restarted coordinator rebuilds from the
// journal: the completed cells and the final membership view.
type replayState struct {
	cells   map[string]core.Result
	members map[string]memberState
	events  int
}

// clusterJournal is the coordinator's durable event log. The harness
// journal serializes appends; the coordinator may append while holding
// its registry lock (lock order: Coordinator.mu, then the journal's).
type clusterJournal struct {
	j     *harness.Journal[journalRecord]
	cells atomic.Int64 // cell records on disk, replayed + appended
}

// openClusterJournal opens the journal at path and replays it. A
// missing or empty file starts a fresh journal; the harness loader
// heals a torn tail and refuses a header under different options
// (harness.ErrJournalMismatch) or damage in the middle
// (harness.ErrJournalCorrupt).
func openClusterJournal(path string, opt exper.Options, logf func(string, ...any)) (*clusterJournal, *replayState, error) {
	j, recs, err := harness.OpenJournal(path, journalFormat, opt, logf)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: %w", err)
	}
	state := &replayState{
		cells:   make(map[string]core.Result),
		members: make(map[string]memberState),
	}
	for _, rec := range recs {
		state.apply(rec)
	}
	cj := &clusterJournal{j: j}
	cj.cells.Store(int64(len(state.cells)))
	return cj, state, nil
}

// apply folds one record into the replay state.
func (s *replayState) apply(rec journalRecord) {
	s.events++
	switch rec.Event {
	case evCell:
		s.cells[rec.Key] = *rec.Result
	case evJoin:
		s.members[rec.Worker] = memberState{addr: rec.Addr, alive: true}
	case evLeave:
		delete(s.members, rec.Worker)
	case evDead:
		if m, ok := s.members[rec.Worker]; ok {
			m.alive = false
			s.members[rec.Worker] = m
		}
	}
}

// checkRecord validates one decoded journal record's shape.
func checkRecord(rec journalRecord) error {
	switch rec.Event {
	case evCell:
		if rec.Key == "" || rec.Result == nil {
			return fmt.Errorf("cell record missing key or result: %w", harness.ErrJournalCorrupt)
		}
	case evJoin:
		if rec.Worker == "" || rec.Addr == "" {
			return fmt.Errorf("join record missing worker or addr: %w", harness.ErrJournalCorrupt)
		}
	case evLeave, evDead:
		if rec.Worker == "" {
			return fmt.Errorf("%s record missing worker: %w", rec.Event, harness.ErrJournalCorrupt)
		}
	default:
		return fmt.Errorf("unknown event %q: %w", rec.Event, harness.ErrJournalCorrupt)
	}
	return nil
}

// appendCell journals one completed cell and returns the new cell
// count — the soak harness's deterministic kill trigger counts these.
// The count is taken after the record is durable, so when it reads N
// at least N cell records are on disk.
func (j *clusterJournal) appendCell(key string, res core.Result) (int, error) {
	if err := j.j.Append(journalRecord{Event: evCell, Key: key, Result: &res}); err != nil {
		return 0, fmt.Errorf("cluster: journal: cell %s: %w", shortKey(key), err)
	}
	return int(j.cells.Add(1)), nil
}

// appendMember journals a worker-membership event (join/leave/dead).
func (j *clusterJournal) appendMember(event, worker, addr string) error {
	if err := j.j.Append(journalRecord{Event: event, Worker: worker, Addr: addr}); err != nil {
		return fmt.Errorf("cluster: journal: %s of worker %s: %w", event, worker, err)
	}
	return nil
}

// close releases the journal handle; later appends fail with
// harness.ErrJournalClosed instead of racing a successor coordinator's
// handle.
func (j *clusterJournal) close() {
	j.j.Close() //nolint:errcheck // contents already durable
}

package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xlate/internal/core"
	"xlate/internal/exper"
	"xlate/internal/harness"
)

func journalHeaderLine(t *testing.T, opt exper.Options) string {
	t.Helper()
	return fmt.Sprintf(`{"version":%d,"kind":%q,"instrs":%d,"scale":%g,"seed":%d}`+"\n",
		journalFormat.Version, journalFormat.Kind, opt.Instrs, opt.Scale, opt.Seed)
}

func cellLine(t *testing.T, key string, instrs uint64) string {
	t.Helper()
	b, err := json.Marshal(journalRecord{Event: evCell, Key: key, Result: &core.Result{Config: "Direct", Instructions: instrs}})
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

func memberLine(t *testing.T, event, worker, addr string) string {
	t.Helper()
	b, err := json.Marshal(journalRecord{Event: event, Worker: worker, Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

func TestJournalRoundTrip(t *testing.T) {
	opt := testOptions()
	path := filepath.Join(t.TempDir(), "coord.journal")

	j, state, err := openClusterJournal(path, opt, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if state.events != 0 {
		t.Fatalf("fresh journal replayed %d events", state.events)
	}
	if n, err := j.appendCell("k1", core.Result{Config: "Direct", Instructions: 1}); err != nil || n != 1 {
		t.Fatalf("appendCell #1 = (%d, %v)", n, err)
	}
	if n, err := j.appendCell("k2", core.Result{Config: "RMM", Instructions: 2}); err != nil || n != 2 {
		t.Fatalf("appendCell #2 = (%d, %v)", n, err)
	}
	for _, m := range [][3]string{
		{evJoin, "w0", "http://a"}, {evJoin, "w1", "http://b"},
		{evDead, "w0", ""}, {evJoin, "w2", "http://c"}, {evLeave, "w2", ""},
	} {
		if err := j.appendMember(m[0], m[1], m[2]); err != nil {
			t.Fatal(err)
		}
	}
	j.close()

	j2, state, err := openClusterJournal(path, opt, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	if len(state.cells) != 2 || state.cells["k2"].Instructions != 2 {
		t.Errorf("replayed cells = %+v, want k1 and k2", state.cells)
	}
	if n := j2.cells.Load(); n != 2 {
		t.Errorf("replayed cell count = %d, want 2", n)
	}
	want := map[string]memberState{
		"w0": {addr: "http://a", alive: false},
		"w1": {addr: "http://b", alive: true},
	}
	if len(state.members) != len(want) {
		t.Fatalf("replayed members = %+v, want %+v", state.members, want)
	}
	for id, ms := range want {
		if state.members[id] != ms {
			t.Errorf("member %s = %+v, want %+v", id, state.members[id], ms)
		}
	}
}

// The corruption table: torn or garbage tails heal —
// those bytes were never durably acknowledged — while damage above a
// valid record fails loudly with a typed error. Healing mid-journal
// damage would silently skip completed cells; that must be impossible.
func TestJournalCorruption(t *testing.T) {
	opt := testOptions()
	hdr := journalHeaderLine(t, opt)
	c1 := cellLine(t, "k1", 1)
	c2 := cellLine(t, "k2", 2)
	join := memberLine(t, evJoin, "w0", "http://a")

	otherOpt := opt
	otherOpt.Seed = 99

	cases := []struct {
		name    string
		content string
		wantErr error
		cells   int
		healed  bool
	}{
		{name: "clean", content: hdr + c1 + c2 + join, cells: 2},
		{name: "empty file", content: "", cells: 0},
		{name: "torn header", content: hdr[:len(hdr)/2], cells: 0, healed: true},
		{name: "torn cell tail", content: hdr + c1 + c2[:len(c2)-9], cells: 1, healed: true},
		{name: "garbage single-line tail", content: hdr + c1 + "%%not json%%\n", cells: 1, healed: true},
		{name: "garbage multi-line tail", content: hdr + c1 + "%%garbage%%\n{\"event\":\n", cells: 1, healed: true},
		{name: "unknown-field tail", content: hdr + c1 + `{"event":"cell","key":"x","result":{},"bogus":1}` + "\n", cells: 1, healed: true},
		{name: "garbage above a cell record", content: hdr + c1 + "%%garbage%%\n" + c2, wantErr: harness.ErrJournalCorrupt},
		{name: "truncated record above a join", content: hdr + c2[:len(c2)-9] + "\n" + join, wantErr: harness.ErrJournalCorrupt},
		{name: "unreadable header above a record", content: "%%not a header%%\n" + c1, wantErr: harness.ErrJournalCorrupt},
		{name: "options mismatch", content: journalHeaderLine(t, otherOpt) + c1, wantErr: harness.ErrJournalMismatch},
		{name: "version mismatch", content: `{"version":99,"kind":"cluster","instrs":200000,"scale":0.1,"seed":7}` + "\n" + c1, wantErr: harness.ErrJournalMismatch},
		{name: "version-1 journal", content: `{"version":1,"instrs":200000,"scale":0.1,"seed":7}` + "\n" + c1, wantErr: harness.ErrJournalMismatch},
		{name: "suite checkpoint", content: strings.Replace(hdr, `"cluster"`, `"suite"`, 1) + `{"key":"k1","result":{}}` + "\n", wantErr: harness.ErrJournalMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "coord.journal")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			j, state, err := openClusterJournal(path, opt, t.Logf)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("open = %v, want %v", err, tc.wantErr)
				}
				if data, _ := os.ReadFile(path); string(data) != tc.content {
					t.Errorf("refused journal was modified: %q", data)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer j.close()
			if len(state.cells) != tc.cells {
				t.Errorf("replayed %d cells, want %d", len(state.cells), tc.cells)
			}
			// A healed journal must have its torn tail truncated away and
			// keep accepting appends that a third open replays cleanly.
			if _, err := j.appendCell("k9", core.Result{Config: "Direct"}); err != nil {
				t.Fatal(err)
			}
			j.close()
			j3, state3, err := openClusterJournal(path, opt, t.Logf)
			if err != nil {
				t.Fatalf("reopen after heal+append: %v", err)
			}
			defer j3.close()
			if len(state3.cells) != tc.cells+1 {
				t.Errorf("after heal+append replayed %d cells, want %d", len(state3.cells), tc.cells+1)
			}
		})
	}
}

// A closed journal refuses appends instead of racing its successor's
// file handle.
func TestJournalClosedAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.journal")
	j, _, err := openClusterJournal(path, testOptions(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	j.close()
	if _, err := j.appendCell("k", core.Result{}); !errors.Is(err, harness.ErrJournalClosed) {
		t.Errorf("append after close = %v, want ErrJournalClosed", err)
	}
	if err := j.appendMember(evJoin, "w0", "http://a"); !errors.Is(err, harness.ErrJournalClosed) {
		t.Errorf("member append after close = %v, want ErrJournalClosed", err)
	}
}

package harness_test

import (
	"errors"
	"reflect"
	"testing"

	"xlate/internal/exper"
	"xlate/internal/harness"
	"xlate/internal/service/cluster"
)

// FuzzJournalReplay hammers the journal loader with mangled journals
// under both record vocabularies that sit on it — the suite
// checkpoint's cells and the cluster coordinator's cell and membership
// events. The loader must never panic, never accept damage silently
// (either the journal heals to a strictly valid prefix or it fails
// with a typed error), and a healed prefix must replay identically on
// a second pass.
func FuzzJournalReplay(f *testing.F) {
	opt := exper.Options{Instrs: 200000, Scale: 0.1, Seed: 7}
	hdr := `{"version":2,"kind":"cluster","instrs":200000,"scale":0.1,"seed":7}` + "\n"
	cell := `{"event":"cell","key":"k1","result":{"Config":"Direct"}}` + "\n"
	join := `{"event":"join","worker":"w0","addr":"http://a"}` + "\n"
	f.Add([]byte(hdr + cell + join))
	f.Add([]byte(hdr + cell[:20]))
	f.Add([]byte(hdr + "garbage\n" + cell))
	f.Add([]byte("x" + hdr + cell))
	f.Add([]byte(""))
	suiteHdr := `{"version":2,"kind":"suite","instrs":200000,"scale":0.1,"seed":7}` + "\n"
	suiteCell := `{"key":"k1","result":{"Config":"Direct"}}` + "\n"
	f.Add([]byte(suiteHdr + suiteCell + suiteCell))
	f.Add([]byte(suiteHdr + suiteCell[:20]))
	f.Add([]byte(suiteHdr + "garbage\n" + suiteCell))
	f.Add([]byte(suiteHdr + cell + suiteCell))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReplay(t, data, harness.CheckpointFormat, opt)
		checkReplay(t, data, cluster.JournalFormat(), opt)
	})
}

func checkReplay[R any](t *testing.T, data []byte, f harness.JournalFormat[R], opt exper.Options) {
	t.Helper()
	recs, keep, err := harness.ReplayJournal(data, "fuzz", f, opt)
	if err != nil {
		if !errors.Is(err, harness.ErrJournalCorrupt) && !errors.Is(err, harness.ErrJournalMismatch) {
			t.Fatalf("%s replay error is not typed: %v", f.Kind, err)
		}
		return
	}
	if keep < 0 || keep > int64(len(data)) {
		t.Fatalf("%s keep = %d outside [0, %d]", f.Kind, keep, len(data))
	}
	recs2, keep2, err := harness.ReplayJournal(data[:keep], "fuzz", f, opt)
	if err != nil {
		t.Fatalf("%s healed prefix does not replay: %v", f.Kind, err)
	}
	if keep2 != keep || !reflect.DeepEqual(recs2, recs) {
		t.Fatalf("%s healed prefix replays differently: keep %d vs %d, %d vs %d records",
			f.Kind, keep2, keep, len(recs2), len(recs))
	}
}

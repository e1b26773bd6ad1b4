package tracec

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"xlate/internal/addr"
	"xlate/internal/core"
	"xlate/internal/exper"
	"xlate/internal/trace"
	"xlate/internal/workloads"
)

// synthRefs builds a deterministic pseudo-random reference slice that
// exercises the full delta range: forward and backward jumps, large
// gaps, and varied instruction gaps.
func synthRefs(n int, seed int64) []trace.Ref {
	rng := rand.New(rand.NewSource(seed))
	refs := make([]trace.Ref, n)
	va := uint64(1 << 30)
	for i := range refs {
		va += uint64(rng.Int63n(1<<21)) - 1<<20 // signed-ish walk
		refs[i] = trace.Ref{VA: addr.VA(va), Instrs: uint64(rng.Int63n(8)) + 1}
	}
	return refs
}

// encodeRefs builds a segment from a complete reference slice.
func encodeRefs(refs []trace.Ref) ([]byte, SegmentInfo, error) {
	e := NewEncoder()
	for _, r := range refs {
		e.Add(r)
	}
	return e.Finish()
}

// decodeAll validates a segment and replays each of its references
// once.
func decodeAll(data []byte) ([]trace.Ref, error) {
	rp, err := NewReplay(data)
	if err != nil {
		return nil, err
	}
	refs := make([]trace.Ref, rp.Info().Refs)
	for i := range refs {
		refs[i] = rp.Next()
	}
	return refs, nil
}

func mustSegment(t *testing.T, refs []trace.Ref) ([]byte, SegmentInfo) {
	t.Helper()
	seg, info, err := encodeRefs(refs)
	if err != nil {
		t.Fatal(err)
	}
	return seg, info
}

// mustValidate wraps segment bytes as a Segment for Store.Put.
func mustValidate(t *testing.T, data []byte) Segment {
	t.Helper()
	seg, err := Validate(data)
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

func TestRoundTrip(t *testing.T) {
	// Three sizes: sub-block, exactly one block, and multi-block with a
	// partial trailing block.
	for _, n := range []int{1, 100, blockRefs, 2*blockRefs + 37} {
		refs := synthRefs(n, int64(n))
		seg, info := mustSegment(t, refs)

		wantBlocks := (n + blockRefs - 1) / blockRefs
		if info.Blocks != wantBlocks || info.Refs != uint64(n) {
			t.Fatalf("n=%d: info = %+v, want %d blocks / %d refs", n, info, wantBlocks, n)
		}
		statInfo, err := Stat(seg)
		if err != nil {
			t.Fatalf("n=%d: Stat: %v", n, err)
		}
		if statInfo != info {
			t.Fatalf("n=%d: Stat info %+v != encode info %+v", n, statInfo, info)
		}
		got, err := decodeAll(seg)
		if err != nil {
			t.Fatalf("n=%d: decodeAll: %v", n, err)
		}
		if !reflect.DeepEqual(got, refs) {
			t.Fatalf("n=%d: decoded refs differ from encoded refs", n)
		}
	}
}

func TestEmptySegmentRefused(t *testing.T) {
	if _, _, err := NewEncoder().Finish(); err == nil {
		t.Fatal("Finish on an empty encoder should fail")
	}
}

// TestCorruption proves the strict gate: every truncation and a
// representative set of byte flips are refused with ErrSegmentCorrupt,
// never a panic or a silent misdecode.
func TestCorruption(t *testing.T) {
	refs := synthRefs(1000, 3)
	seg, _ := mustSegment(t, refs)

	for cut := 0; cut < len(seg); cut++ {
		if _, err := Stat(seg[:cut]); !errors.Is(err, ErrSegmentCorrupt) {
			t.Fatalf("Stat(seg[:%d]) = %v, want ErrSegmentCorrupt", cut, err)
		}
	}
	// A flipped byte anywhere must be refused: the magic check, header
	// plausibility, per-block CRC, and header-total cross-check between
	// them leave no byte unprotected.
	for off := 0; off < len(seg); off++ {
		mut := bytes.Clone(seg)
		mut[off] ^= 0x40
		if _, err := Stat(mut); !errors.Is(err, ErrSegmentCorrupt) {
			t.Fatalf("Stat with byte %d flipped = %v, want ErrSegmentCorrupt", off, err)
		}
	}
	if _, err := Stat([]byte("not a segment at all")); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("Stat(garbage) = %v, want ErrSegmentCorrupt", err)
	}
	if _, err := decodeAll(nil); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("decodeAll(nil) = %v, want ErrSegmentCorrupt", err)
	}
}

func TestReplayWrapsAndCountsLaps(t *testing.T) {
	refs := synthRefs(blockRefs+100, 11) // two blocks, second partial
	seg, _ := mustSegment(t, refs)
	rp, err := NewReplay(seg)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Info().Refs != uint64(len(refs)) {
		t.Fatalf("Info().Refs = %d, want %d", rp.Info().Refs, len(refs))
	}
	// Two and a half passes: every read must equal the source slice at
	// its wrapped index, and Laps must tick at each wrap.
	total := 2*len(refs) + len(refs)/2
	for i := 0; i < total; i++ {
		if got, want := rp.Next(), refs[i%len(refs)]; got != want {
			t.Fatalf("ref %d = %+v, want %+v", i, got, want)
		}
	}
	if rp.Laps != 2 {
		t.Fatalf("Laps = %d, want 2", rp.Laps)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < 3; i++ {
		seg, _ := mustSegment(t, synthRefs(50, int64(i)))
		key := ContentKey(seg)
		if err := s.Put(key, mustValidate(t, seg)); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}
	if n, _ := s.Stats(); n != 2 {
		t.Fatalf("entries = %d, want 2 after eviction", n)
	}
	if _, err := s.Get(keys[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest entry should be evicted, Get = %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, keys[0]+".seg")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("evicted segment file still on disk")
	}
	for _, k := range keys[1:] {
		if _, err := s.Get(k); err != nil {
			t.Fatalf("Get(%s) = %v", k[:12], err)
		}
	}
}

func TestStorePutRefusesCorruptAndMalformed(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	seg, _ := mustSegment(t, synthRefs(10, 1))
	if err := s.Put("not-a-key", mustValidate(t, seg)); err == nil {
		t.Fatal("Put with a malformed key should fail")
	}
	// Put takes only a Segment, and corrupt bytes never become one.
	mut := bytes.Clone(seg)
	mut[len(mut)-1] ^= 1
	if _, err := Validate(mut); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("Validate(corrupt) = %v, want ErrSegmentCorrupt", err)
	}
	if err := s.Put(ContentKey(mut), Segment{}); err == nil {
		t.Fatal("Put of the zero Segment should fail")
	}
	if n, _ := s.Stats(); n != 0 {
		t.Fatalf("refused Puts left %d entries in the store", n)
	}
}

func TestStoreAdoptOnReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	seg, _ := mustSegment(t, synthRefs(200, 9))
	key := ContentKey(seg)
	if err := s.Put(key, mustValidate(t, seg)); err != nil {
		t.Fatal(err)
	}
	// Junk that adopt must skip without failing.
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n, b := s2.Stats(); n != 1 || b != int64(len(seg)) {
		t.Fatalf("reopened store = %d entries / %d bytes, want 1 / %d", n, b, len(seg))
	}
	got, err := s2.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, seg) {
		t.Fatal("adopted segment bytes differ")
	}
}

// externalTrace renders refs in the documented XLTRACE1 upload format
// (what `eeatsim -record` writes).
func externalTrace(t *testing.T, refs []trace.Ref) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		if err := tw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestIngest(t *testing.T) {
	refs := synthRefs(500, 21)

	seg, info, err := Ingest(externalTrace(t, refs))
	if err != nil {
		t.Fatal(err)
	}
	if info.Refs != uint64(len(refs)) {
		t.Fatalf("ingested %d refs, want %d", info.Refs, len(refs))
	}
	got, err := decodeAll(seg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, refs) {
		t.Fatal("ingested segment decodes to different refs than uploaded")
	}

	// A pre-compiled segment passes through byte-identically.
	seg2, _, err := Ingest(seg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seg2, seg) {
		t.Fatal("XLSEGv1 passthrough mutated the bytes")
	}

	// Strictness: zero-instruction records break the pacing invariant.
	bad := refs[:3:3]
	bad = append(bad, trace.Ref{VA: 4096, Instrs: 0})
	if _, _, err := Ingest(externalTrace(t, bad)); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("zero-instr record: err = %v, want ErrBadTrace", err)
	}
	// Empty stream, unknown magic, damaged segment.
	if _, _, err := Ingest(externalTrace(t, nil)); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("empty trace: err = %v, want ErrBadTrace", err)
	}
	if _, _, err := Ingest([]byte("PINTRACE\n....")); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("unknown magic: err = %v, want ErrBadTrace", err)
	}
	mut := bytes.Clone(seg)
	mut[len(mut)/2] ^= 1
	if _, _, err := Ingest(mut); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("damaged segment: err = %v, want ErrSegmentCorrupt", err)
	}
	// A pre-compiled segment without a single instruction: replaying it
	// would never consume a budget.
	idle, _, err := encodeRefs([]trace.Ref{{VA: 4096, Instrs: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Ingest(idle); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("instruction-free segment: err = %v, want ErrSegmentCorrupt", err)
	}
}

// denseTrace is an XLTRACE1 upload of records two-byte records: a VA
// delta in [-30, 29] and an instruction count in [1, 100].
func denseTrace(records int) []byte {
	data := make([]byte, 0, len(trace.Magic)+2*records)
	data = append(data, trace.Magic...)
	for i := 0; i < records; i++ {
		data = append(data, byte(i%60), byte(1+i%100))
	}
	return data
}

// TestIngestMemoryBounded pins the one-pass transcoder's memory: a
// dense 8 MiB upload of 4 Mi two-byte records must allocate at most 4x
// its size in all. Decoding it to a []trace.Ref first costs 16 bytes
// per record before any segment byte is written.
func TestIngestMemoryBounded(t *testing.T) {
	const records = 4 << 20
	data := denseTrace(records)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	seg, info, err := Ingest(data)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if info.Refs != records || info.Blocks != records/blockRefs {
		t.Fatalf("ingested %d refs in %d blocks, want %d in %d", info.Refs, info.Blocks, records, records/blockRefs)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d-byte upload → %d-byte segment; %d bytes allocated (%.2fx the input)",
		len(data), len(seg), alloc, float64(alloc)/float64(len(data)))
	if alloc > 4*uint64(len(data)) {
		t.Fatalf("ingest allocated %d bytes for a %d-byte upload, above the 4x bound", alloc, len(data))
	}
}

// TestIngestHTTPMemoryBounded pins the endpoint's memory on top of
// Ingest's: a plain 8 MiB POST with a Content-Length is read into one
// buffer, so the request allocates at most 3x the body in all.
func TestIngestHTTPMemoryBounded(t *testing.T) {
	store, err := OpenStore(t.TempDir(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	api := NewAPI(store, APIConfig{})
	data := denseTrace(4 << 20)
	req := httptest.NewRequest(http.MethodPost, "/v1/traces", bytes.NewReader(data))
	rec := httptest.NewRecorder()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	api.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusCreated {
		t.Fatalf("POST: HTTP %d: %s", rec.Code, rec.Body.Bytes())
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d-byte POST: %d bytes allocated (%.2fx the body)", len(data), alloc, float64(alloc)/float64(len(data)))
	if alloc > 3*uint64(len(data)) {
		t.Fatalf("POST allocated %d bytes for a %d-byte body, above the 3x bound", alloc, len(data))
	}
}

func postTrace(t *testing.T, ts *httptest.Server, body []byte, gzipped bool) (*http.Response, []byte) {
	t.Helper()
	if gzipped {
		var buf bytes.Buffer
		gz := gzip.NewWriter(&buf)
		if _, err := gz.Write(body); err != nil {
			t.Fatal(err)
		}
		if err := gz.Close(); err != nil {
			t.Fatal(err)
		}
		body = buf.Bytes()
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/traces", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if gzipped {
		req.Header.Set("Content-Encoding", "gzip")
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestAPIIngestAndFetch(t *testing.T) {
	store, err := OpenStore(t.TempDir(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	api := NewAPI(store, APIConfig{})
	ts := httptest.NewServer(api)
	defer ts.Close()

	refs := synthRefs(300, 5)
	upload := externalTrace(t, refs)
	wantSeg, _, err := Ingest(upload)
	if err != nil {
		t.Fatal(err)
	}
	wantKey := ContentKey(wantSeg)

	resp, body := postTrace(t, ts, upload, false)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("plain ingest: HTTP %d: %s", resp.StatusCode, body)
	}
	var info TraceInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Key != wantKey || info.Workload != "trace:"+wantKey {
		t.Fatalf("ingest response %+v, want key %s", info, wantKey[:12])
	}
	if info.Refs != uint64(len(refs)) || info.Bytes != int64(len(wantSeg)) {
		t.Fatalf("ingest response %+v: refs/bytes wrong", info)
	}

	// A gzip upload of the same stream lands on the same content hash.
	resp, body = postTrace(t, ts, upload, true)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("gzip ingest: HTTP %d: %s", resp.StatusCode, body)
	}
	var gzInfo TraceInfo
	if err := json.Unmarshal(body, &gzInfo); err != nil {
		t.Fatal(err)
	}
	if gzInfo.Key != wantKey {
		t.Fatalf("gzip ingest key %s != plain key %s", gzInfo.Key[:12], wantKey[:12])
	}

	// Fetch round trip with the immutable-cache discipline.
	code, seg := getURL(t, ts, "/v1/traces/"+wantKey, "")
	if code != http.StatusOK || !bytes.Equal(seg, wantSeg) {
		t.Fatalf("segment fetch: HTTP %d, %d bytes (want %d)", code, len(seg), len(wantSeg))
	}
	code, _ = getURL(t, ts, "/v1/traces/"+wantKey, `"`+wantKey+`"`)
	if code != http.StatusNotModified {
		t.Fatalf("If-None-Match fetch: HTTP %d, want 304", code)
	}
	code, _ = getURL(t, ts, "/v1/traces/"+strings.Repeat("0", 64), "")
	if code != http.StatusNotFound {
		t.Fatalf("missing segment: HTTP %d, want 404", code)
	}
}

func getURL(t *testing.T, ts *httptest.Server, path, ifNoneMatch string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func TestAPIRejections(t *testing.T) {
	store, err := OpenStore(t.TempDir(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	api := NewAPI(store, APIConfig{MaxBytes: 512})
	ts := httptest.NewServer(api)
	defer ts.Close()

	// Wrong method on both endpoints.
	resp, err := ts.Client().Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/traces: HTTP %d, want 405", resp.StatusCode)
	}
	resp, _ = postTrace(t, ts, nil, false)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty POST: HTTP %d, want 400", resp.StatusCode)
	}
	resp, body := postTrace(t, ts, []byte("garbage bytes, no magic"), false)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage POST: HTTP %d, want 400", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte("error")) {
		t.Fatalf("400 body is not a typed error: %s", body)
	}

	// Over the raw limit → 413.
	resp, _ = postTrace(t, ts, externalTrace(t, synthRefs(5000, 1)), false)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize POST: HTTP %d, want 413", resp.StatusCode)
	}
	// A Content-Length over the limit is refused before the body is
	// read; a body longer than its Content-Length still hits the limit.
	serve := func(claim int64, body io.Reader) int {
		req := httptest.NewRequest(http.MethodPost, "/v1/traces", body)
		req.ContentLength = claim
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := serve(513, iotest.ErrReader(errors.New("body read"))); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("Content-Length over the limit: HTTP %d, want 413", code)
	}
	if code := serve(10, bytes.NewReader(externalTrace(t, synthRefs(5000, 1)))); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body longer than its Content-Length: HTTP %d, want 413", code)
	}
	// A small gzip body that inflates past the limit → 413, not OOM.
	resp, _ = postTrace(t, ts, externalTrace(t, synthRefs(5000, 2)), true)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("gzip-bomb POST: HTTP %d, want 413", resp.StatusCode)
	}

	// Admission control: with the pending slots full, an upload is
	// turned away with 429 + Retry-After instead of queueing.
	api.pending <- struct{}{}
	api.pending <- struct{}{}
	resp, _ = postTrace(t, ts, externalTrace(t, synthRefs(5, 3)), false)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated ingest: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	<-api.pending
	<-api.pending
	resp, _ = postTrace(t, ts, externalTrace(t, synthRefs(5, 3)), false)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("ingest after drain: HTTP %d, want 201", resp.StatusCode)
	}
}

func TestHTTPFetcherVerifiesContentHash(t *testing.T) {
	seg, _ := mustSegment(t, synthRefs(100, 8))
	key := ContentKey(seg)
	evil, _ := mustSegment(t, synthRefs(100, 9))

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, key):
			w.Write(seg)
		case strings.HasSuffix(r.URL.Path, "missing"):
			http.NotFound(w, r)
		default:
			w.Write(evil) // wrong bytes for whatever key was asked
		}
	}))
	defer srv.Close()
	fetch := HTTPFetcher(srv.URL, srv.Client())

	got, err := fetch(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, seg) {
		t.Fatal("fetched bytes differ")
	}
	if _, err := fetch(context.Background(), ContentKey(evil)+"x"); err == nil {
		t.Fatal("fetcher accepted bytes whose hash does not match the requested key")
	}
	if _, err := fetch(context.Background(), "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("404 fetch = %v, want ErrNotFound", err)
	}
}

// replayOnSpace runs j over src on the address space j's spec maps,
// the shape perfbench's replay workloads use: Spec.Map, then
// core.NewSimulator, then RunContext.
func replayOnSpace(t *testing.T, j exper.Job, src trace.RefSource) core.Result {
	t.Helper()
	as, _, err := j.Spec.Map(workloads.BuildOptions{Policy: j.Policy, Seed: j.Seed, Scale: j.Scale})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := core.NewSimulator(j.Params, as)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunContext(context.Background(), src, j.Instrs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCompileSpecReplaysLive is CompileSpec's guarantee: under every
// configuration, a compiled segment replayed on the space its spec maps
// yields exactly the Result of the live cell (exper.ExecuteJobContext),
// so a replay measures the simulator on the very stream a live run
// reads.
func TestCompileSpecReplaysLive(t *testing.T) {
	kinds := append(core.AllConfigs(), core.ExtendedConfigs()...)
	for _, name := range []string{"mcf", "swaptions"} {
		spec, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("no %s workload", name)
		}
		for _, kind := range kinds {
			j := exper.Job{Spec: spec, Params: core.DefaultParams(kind),
				Policy: core.PolicyFor(kind, 0.5), Instrs: 300_000, Scale: 0.1, Seed: 7}
			data, info, err := CompileSpec(spec, workloads.BuildOptions{Policy: j.Policy, Seed: j.Seed, Scale: j.Scale}, j.Instrs)
			if err != nil {
				t.Fatal(err)
			}
			replayed := replayOnSpace(t, j, mustValidate(t, data).Replay())
			live, err := exper.ExecuteJobContext(context.Background(), j)
			if err != nil {
				t.Fatal(err)
			}
			if info.Refs != live.MemRefs {
				t.Errorf("%s/%v: segment holds %d refs, the live cell read %d", name, kind, info.Refs, live.MemRefs)
			}
			if !reflect.DeepEqual(live, replayed) {
				t.Errorf("%s/%v: replayed Result differs from live synthesis:\n%+v\n%+v", name, kind, replayed, live)
			}
		}
	}
}

// TestExecutorIngestedReplay runs a trace-backed cell end to end: the
// segment comes from the store (or the upstream fetcher), replays
// under demand paging, and is deterministic across runs and across the
// fetch path.
func TestExecutorIngestedReplay(t *testing.T) {
	seg, _, err := Ingest(externalTrace(t, synthRefs(5000, 13)))
	if err != nil {
		t.Fatal(err)
	}
	key := ContentKey(seg)

	local, err := OpenStore(t.TempDir(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := local.Put(key, mustValidate(t, seg)); err != nil {
		t.Fatal(err)
	}
	job := func() exper.Job {
		return exper.Job{
			Spec:   workloads.TraceSpec(key),
			Params: core.DefaultParams(core.Cfg4KB),
			Policy: core.PolicyFor(core.Cfg4KB, 0.5),
			Instrs: 100_000,
			Seed:   7,
		}
	}

	ex := &Executor{Store: local}
	r1, err := ex.ExecuteJob(context.Background(), job())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Instructions < 100_000 || r1.MemRefs == 0 {
		t.Fatalf("implausible replay result: %d instrs, %d refs", r1.Instructions, r1.MemRefs)
	}
	r2, err := ex.ExecuteJob(context.Background(), job())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("ingested replay is not deterministic")
	}

	// A second node with an empty store fetches the segment from the
	// first node's API by content hash — the cluster dispatch path —
	// and lands on the identical Result.
	coord := httptest.NewServer(NewAPI(local, APIConfig{}))
	defer coord.Close()
	remoteStore, err := OpenStore(t.TempDir(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var fetches atomic.Int32
	base := HTTPFetcher(coord.URL, coord.Client())
	remote := &Executor{
		Store: remoteStore,
		Fetch: func(ctx context.Context, k string) ([]byte, error) {
			fetches.Add(1)
			return base(ctx, k)
		},
	}
	r3, err := remote.ExecuteJob(context.Background(), job())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r3) {
		t.Fatal("fetched-segment replay differs from local replay")
	}
	// The fetched segment is now cached locally: no second fetch.
	if _, err := remote.ExecuteJob(context.Background(), job()); err != nil {
		t.Fatal(err)
	}
	if got := fetches.Load(); got != 1 {
		t.Fatalf("%d upstream fetches, want 1 (segment should be cached after the first)", got)
	}

	// Regression: under RMM a monotonically sweeping trace faults
	// chunks in VA order, so eager paging hands them physically
	// contiguous blocks and the range table *merges* them; the stale
	// narrower ranges must be shot down from the range TLBs, not trip
	// the overlap invariant (this panicked before the fix in
	// core.Access's demand-fault path).
	sweep := make([]trace.Ref, 4000)
	for i := range sweep {
		sweep[i] = trace.Ref{VA: addr.VA(1<<32 + i*128<<10), Instrs: 3}
	}
	sweepSeg, _, err := encodeRefs(sweep)
	if err != nil {
		t.Fatal(err)
	}
	sweepKey := ContentKey(sweepSeg)
	if err := local.Put(sweepKey, mustValidate(t, sweepSeg)); err != nil {
		t.Fatal(err)
	}
	rmmJob := job()
	rmmJob.Spec = workloads.TraceSpec(sweepKey)
	rmmJob.Params = core.DefaultParams(core.CfgRMM)
	rmmJob.Policy = core.PolicyFor(core.CfgRMM, 0.5)
	if _, err := ex.ExecuteJob(context.Background(), rmmJob); err != nil {
		t.Fatalf("RMM replay of a range-merging trace: %v", err)
	}

	// Without a store or fetch path the cell is refused, not mis-run.
	none := &Executor{}
	if _, err := none.ExecuteJob(context.Background(), job()); err == nil {
		t.Fatal("trace-backed cell without a store should fail")
	}
	missing := &Executor{Store: remoteStore}
	badJob := job()
	badJob.Spec = workloads.TraceSpec(strings.Repeat("1", 64))
	if _, err := missing.ExecuteJob(context.Background(), badJob); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown trace ref = %v, want ErrNotFound", err)
	}
}

func TestKeyDiscriminates(t *testing.T) {
	spec, _ := workloads.ByName("swaptions")
	base := workloads.BuildOptions{Policy: core.PolicyFor(core.Cfg4KB, 0.5), Seed: 7, Scale: 0.25}
	k := Key(spec, base, 100_000)
	if !IsKey(k) {
		t.Fatalf("Key produced a malformed key %q", k)
	}
	variants := []struct {
		name string
		key  string
	}{
		{"seed", Key(spec, workloads.BuildOptions{Policy: base.Policy, Seed: 8, Scale: 0.25}, 100_000)},
		{"scale", Key(spec, workloads.BuildOptions{Policy: base.Policy, Seed: 7, Scale: 0.5}, 100_000)},
		{"policy", Key(spec, workloads.BuildOptions{Policy: core.PolicyFor(core.CfgTHP, 0.5), Seed: 7, Scale: 0.25}, 100_000)},
		{"instrs", Key(spec, base, 200_000)},
	}
	for _, v := range variants {
		if v.key == k {
			t.Errorf("changing %s did not change the key", v.name)
		}
	}
	if k2 := Key(spec, base, 100_000); k2 != k {
		t.Error("Key is not deterministic")
	}
}

func TestIsKey(t *testing.T) {
	good := ContentKey([]byte("x"))
	if !IsKey(good) {
		t.Fatalf("IsKey(%s) = false", good)
	}
	for _, bad := range []string{
		"", "short", strings.Repeat("0", 63), strings.Repeat("0", 65),
		strings.Repeat("G", 64), strings.ToUpper(good), "../" + good[3:],
	} {
		if IsKey(bad) {
			t.Errorf("IsKey(%q) = true", bad)
		}
	}
}

// TestReplayBlocksMatchEncoded consumes a replay through its
// BlockSource methods in uneven steps over two and a half passes: every
// peeked reference must equal the encoded one at its wrapped index, and
// after every Peek, Laps must count the passes completed before the
// reference it shows.
func TestReplayBlocksMatchEncoded(t *testing.T) {
	want := synthRefs(2*blockRefs+1000, 5) // three blocks, the last partial
	seg, _ := mustSegment(t, want)
	rp, err := NewReplay(seg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(want)
	for i, step := 0, 1; i < 2*n+n/2; step = step*7%4099 + 1 {
		got := rp.Peek()
		if rp.Laps != i/n {
			t.Fatalf("at ref %d: Laps = %d, want %d", i, rp.Laps, i/n)
		}
		k := min(step, len(got))
		for j := 0; j < k; j++ {
			if got[j] != want[(i+j)%n] {
				t.Fatalf("ref %d = %+v, encoded %+v", i+j, got[j], want[(i+j)%n])
			}
		}
		rp.Skip(k)
		i += k
	}
	if rp.Laps != 2 {
		t.Fatalf("Laps = %d after two and a half passes, want 2", rp.Laps)
	}
}

// TestAbandonedReplaysLeaveNoGoroutine drops replays mid-segment, with
// the next block's decode in flight, and requires every decode-ahead
// goroutine to exit.
func TestAbandonedReplaysLeaveNoGoroutine(t *testing.T) {
	seg, _ := mustSegment(t, synthRefs(3*blockRefs, 9))
	s, err := Validate(seg)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		rp := s.Replay()
		rp.Skip(len(rp.Peek()) / 2) // mid block 0; block 1 is decoding
		rp.Next()
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the abandoned replays (%d before)", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// nextOnly hides a source's BlockSource methods, so RunContext falls
// back to its one-reference adapter.
type nextOnly struct{ src trace.RefSource }

func (n nextOnly) Next() trace.Ref { return n.src.Next() }

// TestReplayRunContextAtBlockEdges runs a compiled cell over the
// segment's own 32 Ki-reference blocks and over a Next-only view of
// the same replay, with budgets that end exactly at the first block's
// last reference and in the middle of the second block: the Results
// must be identical.
func TestReplayRunContextAtBlockEdges(t *testing.T) {
	spec, ok := workloads.ByName("mcf")
	if !ok {
		t.Fatal("no mcf workload")
	}
	j := exper.Job{Spec: spec, Params: core.DefaultParams(core.CfgTLBLite),
		Policy: core.PolicyFor(core.CfgTLBLite, 0.5), Seed: 3, Scale: 0.1, Instrs: 600_000}
	data, _, err := CompileSpec(spec, workloads.BuildOptions{Policy: j.Policy, Seed: j.Seed, Scale: j.Scale}, j.Instrs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Validate(data)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := decodeAll(data)
	if err != nil || len(refs) < 2*blockRefs {
		t.Fatalf("segment has %d refs (err %v), want two blocks", len(refs), err)
	}
	var edge uint64
	for _, r := range refs[:blockRefs] {
		edge += r.Instrs
	}
	for _, budget := range []uint64{edge, edge + 50_000} {
		j.Instrs = budget
		blocks := replayOnSpace(t, j, s.Replay())
		next := replayOnSpace(t, j, nextOnly{s.Replay()})
		if !reflect.DeepEqual(blocks, next) {
			t.Fatalf("budget %d: block-wise Result %+v\n!= Next-only Result %+v", budget, blocks, next)
		}
	}
}

// TestExecutorSegmentLoadsOnce sends concurrent cells' misses for one
// segment at the executor's memo: they must share a single load.
func TestExecutorSegmentLoadsOnce(t *testing.T) {
	data, info := mustSegment(t, synthRefs(100, 2))
	var e Executor
	var loads atomic.Int32
	load := func() (Segment, error) {
		loads.Add(1)
		time.Sleep(20 * time.Millisecond) // keep the load in flight while the others arrive
		return Validate(data)
	}
	const callers = 8
	start := make(chan struct{})
	errs := make([]error, callers)
	segs := make([]Segment, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			segs[i], errs[i] = e.segment(context.Background(), "key", load)
		}(i)
	}
	close(start)
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Fatalf("%d concurrent callers ran %d loads, want 1", callers, n)
	}
	for i := range segs {
		if errs[i] != nil || segs[i].Info() != info {
			t.Fatalf("caller %d: segment %+v, err %v", i, segs[i].Info(), errs[i])
		}
	}

	// A load that ends with its own caller's context error is not
	// handed to a waiter whose context is live: the waiter loads again.
	var e2 Executor
	loads.Store(0)
	var waiter sync.WaitGroup
	var waitErr error
	_, err := e2.segment(context.Background(), "key", func() (Segment, error) {
		if loads.Add(1) == 1 {
			waiter.Add(1)
			go func() {
				defer waiter.Done()
				_, waitErr = e2.segment(context.Background(), "key", load)
			}()
			time.Sleep(20 * time.Millisecond)
			return Segment{}, context.Canceled
		}
		return Validate(data)
	})
	waiter.Wait()
	if !errors.Is(err, context.Canceled) || waitErr != nil {
		t.Fatalf("cancelled loader got %v, live waiter got %v; want context.Canceled and nil", err, waitErr)
	}
}

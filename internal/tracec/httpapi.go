package tracec

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"xlate/internal/trace"
)

// maxSegmentBytes is the default bound on one ingested segment
// (decompressed): 64 MiB holds roughly 20–30 M references, far past
// the budgets the experiments run at.
const maxSegmentBytes = 64 << 20

// ErrBadTrace is wrapped by ingestion validation failures that are the
// client's fault: unknown magic, malformed records, zero-instruction
// pacing, empty streams. It maps to 400; ErrSegmentCorrupt (a damaged
// pre-compiled segment) does too.
var ErrBadTrace = errors.New("invalid trace stream")

// TraceInfo describes one ingested segment — the ingestion response
// and the /v1/traces listing entry. The Workload field is the name to
// submit jobs under ("trace:<key>"); the segment travels between
// cluster nodes by Key.
//
//eeat:wire
type TraceInfo struct {
	Key      string `json:"key"`
	Workload string `json:"workload"`
	Refs     uint64 `json:"refs"`
	Instrs   uint64 `json:"instrs"`
	Blocks   int    `json:"blocks"`
	Bytes    int64  `json:"bytes"`
}

// API serves the trace ingestion endpoints over a Store:
//
//	POST /v1/traces        ingest a reference stream (XLTRACE1 records
//	                       or a pre-compiled XLSEGv1 segment; chunked
//	                       bodies and Content-Encoding: gzip accepted;
//	                       413 past MaxBytes, 429 past MaxPending)
//	GET  /v1/traces/{key}  fetch a segment by content hash
//	                       (application/octet-stream, immutable ETag)
//
// Both the service daemon and the cluster coordinator mount it, so a
// stream ingested anywhere is fetchable by every node that learns its
// content hash.
type API struct {
	store    *Store
	maxBytes int64
	pending  chan struct{}
	logf     func(string, ...any)
}

// APIConfig bounds the ingestion endpoint.
type APIConfig struct {
	// MaxBytes caps one decompressed segment (default 64 MiB). Larger
	// uploads get 413.
	MaxBytes int64
	// MaxPending caps concurrent ingest decodes (default 2). Excess
	// uploads get 429 with Retry-After, mirroring the job queue's
	// admission control.
	MaxPending int
	// Logf receives ingest lines (nil = silent).
	Logf func(string, ...any)
}

// NewAPI builds the handler over store.
func NewAPI(store *Store, cfg APIConfig) *API {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = maxSegmentBytes
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 2
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &API{
		store:    store,
		maxBytes: cfg.MaxBytes,
		pending:  make(chan struct{}, cfg.MaxPending),
		logf:     cfg.Logf,
	}
}

func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/v1/traces":
		a.ingest(w, r)
	case strings.HasPrefix(r.URL.Path, "/v1/traces/"):
		a.serveSegment(w, r, strings.TrimPrefix(r.URL.Path, "/v1/traces/"))
	default:
		writeError(w, http.StatusNotFound, "no such trace endpoint")
	}
}

// WorkloadName is the job-API name an ingested segment runs under.
func WorkloadName(key string) string { return "trace:" + key }

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)}) //nolint:errcheck // response write
}

// ingest is POST /v1/traces.
func (a *API) ingest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST a trace stream here")
		return
	}
	if r.ContentLength > a.maxBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "trace exceeds the %d-byte limit", a.maxBytes)
		return
	}
	select {
	case a.pending <- struct{}{}:
		defer func() { <-a.pending }()
	default:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "too many concurrent trace ingests")
		return
	}

	// Bound the raw body, then the decompressed stream: a gzip bomb hits
	// the decompressed limit, an oversized plain body the raw one — both
	// are 413, not OOM. A plain body of known length is read into one
	// buffer of that size plus the byte that shows EOF; the rest start
	// small and grow.
	body := io.Reader(http.MaxBytesReader(w, r.Body, a.maxBytes))
	size := int64(512)
	if strings.EqualFold(r.Header.Get("Content-Encoding"), "gzip") {
		gz, err := gzip.NewReader(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad gzip stream: %v", err)
			return
		}
		defer gz.Close()
		body = gz
	} else if r.ContentLength >= 0 {
		size = r.ContentLength + 1
	}
	data, err := readAll(io.LimitReader(body, a.maxBytes+1), size)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "trace exceeds the %d-byte limit", a.maxBytes)
			return
		}
		writeError(w, http.StatusBadRequest, "reading trace body: %v", err)
		return
	}
	if int64(len(data)) > a.maxBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "trace exceeds the %d-byte limit (decompressed)", a.maxBytes)
		return
	}

	segment, info, err := Ingest(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := ContentKey(segment)
	if err := a.store.Put(key, Segment{data: segment, info: info}); err != nil {
		writeError(w, http.StatusInternalServerError, "storing segment: %v", err)
		return
	}
	a.logf("ingested trace %s: %d refs, %d instrs, %d blocks, %d bytes",
		key[:12], info.Refs, info.Instrs, info.Blocks, len(segment))

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	resp := TraceInfo{
		Key:      key,
		Workload: WorkloadName(key),
		Refs:     info.Refs,
		Instrs:   info.Instrs,
		Blocks:   info.Blocks,
		Bytes:    int64(len(segment)),
	}
	b, _ := json.MarshalIndent(resp, "", "  ") //nolint:errcheck // plain struct
	w.Write(append(b, '\n'))                   //nolint:errcheck // response write
}

// readAll is io.ReadAll starting from a buffer of size bytes, so a
// stream that fits allocates once.
func readAll(r io.Reader, size int64) ([]byte, error) {
	b := make([]byte, 0, size)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// serveSegment is GET /v1/traces/{key}. Segments are immutable by
// construction (the key is the content hash), so the cache headers
// mirror the result endpoint's immutable discipline.
func (a *API) serveSegment(w http.ResponseWriter, r *http.Request, key string) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeError(w, http.StatusMethodNotAllowed, "GET a segment here")
		return
	}
	etag := `"` + key + `"`
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	data, err := a.store.Get(key)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "max-age=31536000, immutable")
	w.Header().Set("Content-Length", fmt.Sprint(len(data)))
	if r.Method == http.MethodHead {
		return
	}
	w.Write(data) //nolint:errcheck // response write
}

// Ingest validates an uploaded stream and canonicalizes it into a
// segment. Two formats are accepted: the documented external trace
// format (XLTRACE1 varint records — what `eeatsim -record` writes) and
// an already-compiled XLSEGv1 segment. Validation is strict with typed
// errors: malformed records wrap ErrBadTrace, damaged segments wrap
// ErrSegmentCorrupt. Records must pass trace.CheckReplayable's pacing
// rule, which xlate.ReplayTrace applies too: the stream is non-empty
// and every reference carries at least one instruction, or a replay
// could spin without consuming budget. The returned bytes always pass
// Stat: they are the input segment after Stat, or the encoder's own
// output.
func Ingest(data []byte) ([]byte, SegmentInfo, error) {
	switch {
	case bytes.HasPrefix(data, []byte(segMagic)):
		info, err := Stat(data)
		if err != nil {
			return nil, SegmentInfo{}, err
		}
		return data, info, nil
	case bytes.HasPrefix(data, []byte(trace.Magic)):
		return transcode(data[len(trace.Magic):])
	default:
		return nil, SegmentInfo{}, fmt.Errorf("tracec: %w: unrecognized magic (want XLTRACE1 or XLSEGv1)", ErrBadTrace)
	}
}

// transcode re-encodes XLTRACE1 records into a segment in one pass,
// never holding more than one block of decoded references. Each record
// re-encodes canonically in at most its own length, except that a
// block's first record carries its absolute VA (at most nine bytes
// more), and each block gains its head; a record takes at least two
// bytes. So the encoder's buffer is sized once, for the largest segment
// body can make, and the segment's bytes are allocated once.
func transcode(body []byte) ([]byte, SegmentInfo, error) {
	maxBlocks := len(body)/2/blockRefs + 1
	enc := newEncoder(segHeadMax + len(body) + maxBlocks*(blockHeadMax+binary.MaxVarintLen64-1))
	d := trace.NewDecoder(body)
	buf := make([]trace.Ref, 0, min(blockRefs, len(body)/2))
	n := 0 // records so far
	for d.Len() > 0 {
		var err error
		buf, err = d.Decode(buf[:0], blockRefs)
		for i, r := range buf {
			if r.Instrs == 0 {
				return nil, SegmentInfo{}, fmt.Errorf("tracec: %w: record %d carries zero instructions (pacing invariant: every reference advances the budget)", ErrBadTrace, n+i)
			}
			enc.Add(r)
		}
		n += len(buf)
		if err != nil {
			return nil, SegmentInfo{}, fmt.Errorf("tracec: %w: record %d: %v", ErrBadTrace, n, err)
		}
	}
	seg, info, err := enc.Finish()
	if err != nil { // no records at all
		return nil, SegmentInfo{}, fmt.Errorf("tracec: %w: empty trace", ErrBadTrace)
	}
	// Every record carries an instruction, so a zero total means the
	// sum wrapped; Stat refuses a header that claims no instructions.
	if info.Instrs == 0 {
		return nil, SegmentInfo{}, fmt.Errorf("tracec: %w: instruction total overflows 64 bits", ErrBadTrace)
	}
	return seg, info, nil
}

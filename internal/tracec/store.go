package tracec

import (
	"container/list"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrNotFound reports a segment the store does not hold.
var ErrNotFound = errors.New("trace segment not found")

// Store is the on-disk, content-addressed segment store: one
// `<key>.seg` file per compiled or ingested segment, bounded by entry
// count and total bytes with LRU eviction — the same discipline as the
// service result cache, except entries live on disk so they survive
// process restarts and can be served to cluster peers by content hash.
// Segments are cache entries, not durable state: writes are atomic
// (temp file + rename) but not fsynced, because a lost segment is
// recompiled or re-fetched, never healed.
type Store struct {
	dir        string
	maxEntries int
	maxBytes   int64

	mu      sync.Mutex
	entries map[string]*list.Element // key → lru element
	lru     *list.List               // front = most recent; values are *storeEntry
	bytes   int64
	flight  map[string]*compileCall
}

type storeEntry struct {
	key   string
	bytes int64
}

type compileCall struct {
	done chan struct{}
	data []byte
	err  error
}

// IsKey reports whether key is a well-formed content address — 64
// lowercase hex digits. Everything else is refused before it can touch
// a file path (the HTTP GET handler and the job API's "trace:<key>"
// workload names pass client input through here).
func IsKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// OpenStore opens (creating if needed) a segment store rooted at dir.
// Existing segments are adopted in modification-time order, so a
// restarted daemon's LRU approximates the previous process's recency.
// maxEntries and maxBytes bound the store (0 = a generous default).
func OpenStore(dir string, maxEntries int, maxBytes int64) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("tracec: empty store directory")
	}
	if maxEntries <= 0 {
		maxEntries = 256
	}
	if maxBytes <= 0 {
		maxBytes = 2 << 30
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tracec: opening store: %w", err)
	}
	s := &Store{
		dir:        dir,
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		entries:    make(map[string]*list.Element),
		lru:        list.New(),
		flight:     make(map[string]*compileCall),
	}
	if err := s.adopt(); err != nil {
		return nil, err
	}
	return s, nil
}

// adopt indexes segments already on disk, oldest first so the freshest
// file ends up at the LRU front.
func (s *Store) adopt() error {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("tracec: scanning store: %w", err)
	}
	type onDisk struct {
		key   string
		bytes int64
		mtime int64
	}
	var found []onDisk
	for _, de := range des {
		name := de.Name()
		key, ok := strings.CutSuffix(name, ".seg")
		if !ok || !IsKey(key) || de.IsDir() {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			return fmt.Errorf("tracec: scanning store: %w", err)
		}
		found = append(found, onDisk{key: key, bytes: fi.Size(), mtime: fi.ModTime().UnixNano()})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime < found[j].mtime })
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range found {
		s.insertLocked(f.key, f.bytes)
	}
	return nil
}

func (s *Store) path(key string) string { return filepath.Join(s.dir, key+".seg") }

// insertLocked records key at the LRU front and evicts past the bounds,
// never evicting the entry just inserted.
func (s *Store) insertLocked(key string, n int64) {
	if el, ok := s.entries[key]; ok {
		s.bytes += n - el.Value.(*storeEntry).bytes
		el.Value.(*storeEntry).bytes = n
		s.lru.MoveToFront(el)
	} else {
		s.entries[key] = s.lru.PushFront(&storeEntry{key: key, bytes: n})
		s.bytes += n
	}
	for (s.lru.Len() > s.maxEntries || s.bytes > s.maxBytes) && s.lru.Len() > 1 {
		el := s.lru.Back()
		ent := el.Value.(*storeEntry)
		s.lru.Remove(el)
		delete(s.entries, ent.key)
		s.bytes -= ent.bytes
		os.Remove(s.path(ent.key)) //nolint:errcheck // eviction of a cache file
	}
}

// Get returns the segment stored under key, or ErrNotFound. A hit
// refreshes the entry's LRU position.
func (s *Store) Get(key string) ([]byte, error) {
	if !IsKey(key) {
		return nil, fmt.Errorf("tracec: %w: malformed key %q", ErrNotFound, key)
	}
	s.mu.Lock()
	el, ok := s.entries[key]
	if ok {
		s.lru.MoveToFront(el)
	}
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("tracec: %w: %s", ErrNotFound, key)
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		// The file vanished under us (external cleanup); drop the index
		// entry and report a miss so the caller recompiles or re-fetches.
		s.dropIndex(key)
		return nil, fmt.Errorf("tracec: %w: %s", ErrNotFound, key)
	}
	return data, nil
}

func (s *Store) dropIndex(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		s.bytes -= el.Value.(*storeEntry).bytes
		s.lru.Remove(el)
		delete(s.entries, key)
	}
}

// Put stores a segment under key after validating it (the Stat gate —
// a corrupt segment never enters the store). The write is atomic.
func (s *Store) Put(key string, data []byte) error {
	if !IsKey(key) {
		return fmt.Errorf("tracec: malformed segment key %q", key)
	}
	if _, err := Stat(data); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("tracec: storing %s: %w", key, err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name()) //nolint:errcheck // best-effort cleanup
		return fmt.Errorf("tracec: storing %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name()) //nolint:errcheck // best-effort cleanup
		return fmt.Errorf("tracec: storing %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name()) //nolint:errcheck // best-effort cleanup
		return fmt.Errorf("tracec: storing %s: %w", key, err)
	}
	s.mu.Lock()
	s.insertLocked(key, int64(len(data)))
	s.mu.Unlock()
	return nil
}

// GetOrCompile returns the segment under key, invoking compile on a
// miss. Concurrent callers for the same key share one compilation
// (singleflight) — the harness fans the same spec across many cells,
// and exactly one of them should pay the compile.
func (s *Store) GetOrCompile(key string, compile func() ([]byte, error)) ([]byte, error) {
	for {
		if data, err := s.Get(key); err == nil {
			return data, nil
		}
		s.mu.Lock()
		if call, ok := s.flight[key]; ok {
			s.mu.Unlock()
			<-call.done
			return call.data, call.err
		}
		if _, ok := s.entries[key]; !ok {
			break // still s.mu-locked: become the key's flight below
		}
		// A flight stored the segment and ended between the Get above
		// and this lock: go round again, which reads it back instead of
		// compiling it again.
		s.mu.Unlock()
	}
	call := &compileCall{done: make(chan struct{})}
	s.flight[key] = call
	s.mu.Unlock()

	data, err := compile()
	if err == nil {
		err = s.Put(key, data)
	}
	call.data, call.err = data, err
	s.mu.Lock()
	delete(s.flight, key)
	s.mu.Unlock()
	close(call.done)
	return data, err
}

// Stats reports the store's current occupancy.
func (s *Store) Stats() (entries int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len(), s.bytes
}

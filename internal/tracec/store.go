package tracec

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"xlate/internal/keyed"
)

// ErrNotFound reports a segment the store does not hold.
var ErrNotFound = errors.New("trace segment not found")

// Store is the on-disk, content-addressed segment store: one
// `<key>.seg` file per compiled or ingested segment. Its index is a
// keyed.Cache (key → file size) bounded by entry count and total
// bytes, the same LRU as the service result cache, whose eviction hook
// deletes the file; entries live on disk so they survive process
// restarts and can be served to cluster peers by content hash.
// Segments are cache entries, not durable state: writes are atomic
// (temp file + rename) but not fsynced, because a lost segment is
// recompiled or re-fetched, never healed.
type Store struct {
	dir   string
	index *keyed.Cache[string, int64]
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
	s := &Store{dir: dir}
	s.index = keyed.New(maxEntries, maxBytes, 0, func(key string, _ int64) {
		os.Remove(s.path(key)) //nolint:errcheck // eviction of a cache file
	})
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
	for _, f := range found {
		s.index.Put(f.key, f.bytes, f.bytes)
	}
	return nil
}

func (s *Store) path(key string) string { return filepath.Join(s.dir, key+".seg") }

// Get returns the segment stored under key, or ErrNotFound. A hit
// refreshes the entry's LRU position.
func (s *Store) Get(key string) ([]byte, error) {
	if !IsKey(key) {
		return nil, fmt.Errorf("tracec: %w: malformed key %q", ErrNotFound, key)
	}
	if _, ok := s.index.Get(key); !ok {
		return nil, fmt.Errorf("tracec: %w: %s", ErrNotFound, key)
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		// The file vanished under us (external cleanup); drop the index
		// entry and report a miss so the caller recompiles or re-fetches.
		s.index.Remove(key)
		return nil, fmt.Errorf("tracec: %w: %s", ErrNotFound, key)
	}
	return data, nil
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
	s.index.Put(key, int64(len(data)), int64(len(data)))
	return nil
}

// Stats reports the store's current occupancy.
func (s *Store) Stats() (entries int, bytes int64) { return s.index.Stats() }

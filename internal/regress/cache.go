package regress

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"

	"crve/internal/bca"
	"crve/internal/core"
	"crve/internal/nodespec"
)

// cacheSchema names the on-disk entry layout. Bump it whenever the record
// format or the key derivation changes; stale entries then miss cleanly.
const cacheSchema = "crve-regress-cache-v3"

// CodeVersion identifies the simulation semantics baked into cached results:
// the cache schema plus, when the binary carries build metadata, the VCS
// revision (with a -dirty marker for modified trees). Two binaries built
// from different commits never share entries — a cached result is only as
// reusable as the code that produced it.
func CodeVersion() string {
	v := cacheSchema
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			v += "+" + rev
			if modified == "true" {
				v += "-dirty"
			}
		}
	}
	return v
}

// Cache is the content-addressed result store of the incremental regression
// engine. One entry holds the full serialized outcome of one
// (configuration, test, seed, bugs) work unit; the key is a canonical hash
// of exactly the inputs that determine that outcome, so re-running a matrix
// after editing one configuration re-simulates only that configuration's
// units and serves everything else from disk.
//
// Entries are independent JSON files, written atomically, so concurrent
// workers — or concurrent regress processes sharing a directory — never
// observe torn entries. Any unreadable, unparsable or version-mismatched
// entry degrades to a miss.
//
// Within one process the cache is also a flight group: when several engine
// runs share a Cache (the served, multi-tenant tier), the first goroutine to
// miss on a key becomes its owner and everyone else blocks until the entry
// lands, then loads it — two concurrent jobs submitting overlapping
// (config, test, seed) units never simulate the same unit twice. Separate
// processes sharing a directory stay correct (atomic entries) but may
// duplicate work; the flight group is per-process by design.
type Cache struct {
	dir     string
	version string

	mu     sync.Mutex
	flight map[string]chan struct{}
}

// OpenCache opens (creating if needed) a cache directory, keyed with the
// current CodeVersion.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("regress: cache: %w", err)
	}
	return &Cache{dir: dir, version: CodeVersion(), flight: make(map[string]chan struct{})}, nil
}

// Dir returns the backing directory.
func (c *Cache) Dir() string { return c.dir }

// Key derives the content hash of one work unit. The canonical serialized
// configuration (FormatConfig — the same text the .cfg corpus round-trips
// through, building on the lint.Source provenance of parameter files) keys
// the config by value, not by name: renaming a file moves nothing, editing
// any parameter invalidates exactly that configuration's entries. Tests are
// keyed by registry name and bug sets by their canonical rendering; the
// code version covers everything else (test definitions included).
//
// The unnamed last parameter is ignored. It once named the simulation
// backend; it is kept only for the sign-off benchmark (signoffbench), which
// calls Key with five arguments.
func (c *Cache) Key(cfg nodespec.Config, testName string, seed int64, bugs bca.Bugs, _ string) string {
	h := sha256.New()
	for _, part := range []string{
		c.version,
		FormatConfig(cfg),
		testName,
		fmt.Sprintf("%d", seed),
		fmt.Sprintf("%+v", bugs),
	} {
		io.WriteString(h, part)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cacheEntry is the on-disk envelope: the version gate plus enough plain
// text (config, test, seed) to make entries greppable when debugging.
type cacheEntry struct {
	Version string           `json:"version"`
	Config  string           `json:"config"`
	Test    string           `json:"test"`
	Seed    int64            `json:"seed"`
	Pair    *core.PairRecord `json:"pair"`
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Load fetches the entry for key, reporting whether a valid one exists.
func (c *Cache) Load(key string) (*core.PairRecord, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	var ent cacheEntry
	if err := json.Unmarshal(data, &ent); err != nil {
		return nil, false
	}
	if ent.Version != c.version || ent.Pair == nil || ent.Pair.RTL == nil || ent.Pair.BCA == nil {
		return nil, false
	}
	return ent.Pair, true
}

// acquire resolves a work unit against the cache and the in-process flight
// group. It returns exactly one of:
//
//   - (rec, nil, nil): a valid entry exists — the unit is served from disk;
//   - (nil, release, nil): the caller is now the flight owner for key and
//     must simulate the unit, then call release exactly once (after Store on
//     success, or bare on failure so waiters can take over);
//   - (nil, nil, err): ctx was cancelled while waiting on another owner.
//
// While an owner is in flight every other acquire of the same key blocks,
// then re-probes — the dedupe that makes a second identical job simulate
// zero units even when submitted concurrently with the first.
func (c *Cache) acquire(ctx context.Context, key string) (*core.PairRecord, func(), error) {
	for {
		if rec, ok := c.Load(key); ok {
			return rec, nil, nil
		}
		c.mu.Lock()
		ch, inFlight := c.flight[key]
		if !inFlight {
			c.flight[key] = make(chan struct{})
			c.mu.Unlock()
			// The previous owner may have stored and released between our
			// Load miss and taking the lock; re-probe before simulating.
			if rec, ok := c.Load(key); ok {
				c.release(key)
				return rec, nil, nil
			}
			return nil, func() { c.release(key) }, nil
		}
		c.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
}

// release ends the caller's flight ownership of key, waking every waiter.
func (c *Cache) release(key string) {
	c.mu.Lock()
	if ch, ok := c.flight[key]; ok {
		delete(c.flight, key)
		close(ch)
	}
	c.mu.Unlock()
}

// Store persists the entry for key atomically (temp file + rename).
func (c *Cache) Store(key string, cfg nodespec.Config, testName string, seed int64, rec *core.PairRecord) error {
	data, err := json.Marshal(cacheEntry{
		Version: c.version,
		Config:  FormatConfig(cfg),
		Test:    testName,
		Seed:    seed,
		Pair:    rec,
	})
	if err != nil {
		return fmt.Errorf("regress: cache store: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, "entry-*.tmp")
	if err != nil {
		return fmt.Errorf("regress: cache store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("regress: cache store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("regress: cache store: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("regress: cache store: %w", err)
	}
	return nil
}

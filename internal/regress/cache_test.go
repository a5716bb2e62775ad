package regress

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"crve/internal/bca"
	"crve/internal/nodespec"
)

// testCache builds a cache with a pinned version so tests control
// invalidation explicitly.
func testCache(t *testing.T, version string) *Cache {
	t.Helper()
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.version = version
	return c
}

func TestCacheKeyDiscriminates(t *testing.T) {
	c := testCache(t, "v1")
	cfg := StandardMatrix()[0]
	base := c.Key(cfg, "basic_write_read", 1, bca.Bugs{}, "")
	if base != c.Key(cfg, "basic_write_read", 1, bca.Bugs{}, "") {
		t.Error("key is not stable")
	}
	edited := cfg
	edited.PipeSize++
	c2 := testCache(t, "v2")
	distinct := map[string]string{
		"config":  c.Key(edited, "basic_write_read", 1, bca.Bugs{}, ""),
		"test":    c.Key(cfg, "error_paths", 1, bca.Bugs{}, ""),
		"seed":    c.Key(cfg, "basic_write_read", 2, bca.Bugs{}, ""),
		"bugs":    c.Key(cfg, "basic_write_read", 1, bca.Bugs{LRUInit: true}, ""),
		"version": c2.Key(cfg, "basic_write_read", 1, bca.Bugs{}, ""),
	}
	for dim, key := range distinct {
		if key == base {
			t.Errorf("changing the %s must change the key", dim)
		}
	}
	// Renaming alone must also invalidate: the name is part of the
	// canonical config text and of every report.
	renamed := cfg
	renamed.Name = "elsewhere"
	if c.Key(renamed, "basic_write_read", 1, bca.Bugs{}, "") == base {
		t.Error("renaming the config must change the key")
	}
}

func TestCacheCorruptAndVersionMismatchAreMisses(t *testing.T) {
	c := testCache(t, "v1")
	cfg := StandardMatrix()[0]
	key := c.Key(cfg, "t", 1, bca.Bugs{}, "")
	if _, ok := c.Load(key); ok {
		t.Fatal("empty cache must miss")
	}
	if err := os.WriteFile(c.path(key), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load(key); ok {
		t.Error("corrupt entry must load as a miss")
	}
	if err := os.WriteFile(c.path(key), []byte(`{"version":"other","pair":{"rtl":{},"bca":{}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load(key); ok {
		t.Error("version-mismatched entry must load as a miss")
	}
}

// TestRunIncremental is the cache's end-to-end contract: a warm re-run
// simulates nothing and reports the same bytes; editing one configuration
// re-simulates exactly that configuration's units.
func TestRunIncremental(t *testing.T) {
	cache := testCache(t, "pinned")
	cfgs := []nodespec.Config{
		engineCfg(t, "inc0", 4),
		engineCfg(t, "inc1", 2),
	}
	suite := engineSuite(t, "basic_write_read", "error_paths")
	opt := Options{Tests: suite, Seeds: []int64{1}, Cache: cache, Workers: 4}

	results1, stats1, err := Run(cfgs, opt)
	if err != nil {
		t.Fatal(err)
	}
	units := len(cfgs) * len(suite)
	if stats1.Ran != units || stats1.Cached != 0 {
		t.Fatalf("cold run stats %v, want %d ran, 0 cached", stats1, units)
	}
	rep1 := MatrixReport(results1)

	var log bytes.Buffer
	opt.Log = &log
	results2, stats2, err := Run(cfgs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Ran != 0 || stats2.Cached != units {
		t.Fatalf("warm run stats %v, want 0 ran, %d cached", stats2, units)
	}
	if rep2 := MatrixReport(results2); rep2 != rep1 {
		t.Errorf("cache-served report differs from simulated report:\n%s\nvs\n%s", rep1, rep2)
	}
	if !strings.Contains(log.String(), "(cached)") {
		t.Errorf("verbose log should mark cache-served runs:\n%s", log.String())
	}
	for _, cr := range results2 {
		if !cr.SignedOff() {
			t.Errorf("%s: cache-served aggregate lost sign-off", cr.Cfg.Name)
		}
	}

	// Edit one configuration: only its units re-simulate.
	opt.Log = nil
	edited := []nodespec.Config{cfgs[0], engineCfg(t, "inc1", 8)}
	_, stats3, err := Run(edited, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(suite); stats3.Ran != want || stats3.Cached != units-want {
		t.Fatalf("incremental stats %v, want %d ran, %d cached", stats3, want, units-want)
	}

	// A fresh cache sees changed code (version bump): everything re-runs.
	bumped := testCache(t, "pinned-2")
	bumped.dir = cache.dir
	opt.Cache = bumped
	_, stats4, err := Run(cfgs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if stats4.Ran != units || stats4.Cached != 0 {
		t.Fatalf("version-bumped stats %v, want %d ran, 0 cached", stats4, units)
	}
}

func TestCodeVersionCarriesSchema(t *testing.T) {
	if !strings.HasPrefix(CodeVersion(), cacheSchema) {
		t.Errorf("CodeVersion %q must start with the schema tag", CodeVersion())
	}
}

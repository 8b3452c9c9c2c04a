package runner

import (
	"container/list"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/system"
)

// Cache-hit provenance values recorded on jobs and events: which of the
// runner's two tiers answered.
const (
	HitMemory = "memory"
	HitDisk   = "disk"
)

// memCache is an LRU of completed results keyed by config key. A
// non-positive capacity means unlimited (the experiment harness keeps every
// run of a sweep alive; the server bounds it). It has no lock of its own:
// the owning Runner's mutex guards it, which keeps cache probes atomic with
// the inflight-job coalescing decisions made under the same lock.
type memCache struct {
	cap   int
	ll    *list.List               //stash:guardedby Runner.mu
	items map[string]*list.Element //stash:guardedby Runner.mu
}

type memEntry struct {
	key string
	res *system.Results
}

func newMemCache(capacity int) *memCache {
	return &memCache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

//stash:locked Runner.mu
func (c *memCache) get(key string) (*system.Results, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*memEntry).res, true
}

//stash:locked Runner.mu
func (c *memCache) put(key string, res *system.Results) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*memEntry).res = res
		return
	}
	c.items[key] = c.ll.PushFront(&memEntry{key: key, res: res})
	if c.cap > 0 && c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*memEntry).key)
	}
}

// resultStore is the persistent cache tier behind the in-memory LRU.
// *diskCache is the real implementation; tests wrap it to inject latency
// and failures into the probe and persist paths.
type resultStore interface {
	get(key string) (*system.Results, bool)
	put(key string, cfg system.Config, res *system.Results) error
}

// diskEnvelope is the on-disk JSON schema: the key guards against renamed
// files, and the config documents what produced the result.
type diskEnvelope struct {
	Key     string          `json:"key"`
	SavedAt time.Time       `json:"savedAt"`
	Config  system.Config   `json:"config"`
	Results *system.Results `json:"results"`
}

// staleTempAge is how old an orphaned temp file must be before the open-time
// sweep removes it. The write path holds a temp file only for milliseconds,
// but another process sharing the directory (stashsim, experiments or a
// second stashd) may be mid-write right now — the age floor keeps the sweep
// from racing a live writer's rename.
const staleTempAge = time.Hour

// diskCache persists one JSON file per result under a directory. Every
// failure mode on the read path — missing file, unreadable file, corrupt
// JSON, key mismatch — degrades to a cache miss; the write path is atomic
// (temp file + rename), removes its temp file on every failure, and the
// open-time sweep collects temp files orphaned by a crashed writer, so a
// long-lived shared directory cannot accrete garbage.
type diskCache struct {
	dir string
	// rename is os.Rename; tests substitute it to exercise the
	// orphan-cleanup path.
	rename func(oldpath, newpath string) error
}

// newDiskCache opens (and, on first write, creates) the cache directory and
// sweeps temp files orphaned by crashed writers.
func newDiskCache(dir string) *diskCache {
	d := &diskCache{dir: dir, rename: os.Rename}
	d.sweepStaleTemps(time.Now())
	return d
}

// sweepStaleTemps removes `*.tmp*` leftovers older than staleTempAge. A
// crashed or failed writer orphans at most one temp file, but every
// process that shares the directory, across every restart, adds to that
// slow leak, so each one collects on open. Errors are ignored: the sweep is
// best-effort hygiene, and a file another process deletes first is fine.
func (d *diskCache) sweepStaleTemps(now time.Time) {
	matches, err := filepath.Glob(filepath.Join(d.dir, "*.tmp*"))
	if err != nil {
		return
	}
	for _, m := range matches {
		if !strings.Contains(filepath.Base(m), ".tmp") {
			continue
		}
		info, err := os.Stat(m)
		if err != nil || now.Sub(info.ModTime()) < staleTempAge {
			continue
		}
		os.Remove(m)
	}
}

func (d *diskCache) path(key string) string {
	return filepath.Join(d.dir, key+".json")
}

func (d *diskCache) get(key string) (*system.Results, bool) {
	b, err := os.ReadFile(d.path(key))
	if err != nil {
		return nil, false
	}
	var env diskEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, false // corrupt file: treat as a miss
	}
	if env.Key != key || env.Results == nil {
		return nil, false
	}
	return env.Results, true
}

func (d *diskCache) put(key string, cfg system.Config, res *system.Results) error {
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(diskEnvelope{
		Key: key, SavedAt: time.Now().UTC(), Config: cfg, Results: res,
	}, "", " ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(d.dir, key+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := d.rename(tmp.Name(), d.path(key)); err != nil {
		// A failed rename must not orphan the temp file: in a shared
		// directory the leak compounds across processes and restarts.
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

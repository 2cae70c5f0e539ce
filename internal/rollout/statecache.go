// The shared JobState cache: one entry per distinct job key, built
// once under a per-key singleflight and then read-only, with an LRU
// bound on the memoized noise-trace memory. Grid sweeps repeat a small
// set of jobs thousands of times, so the cache pays each job's
// schedule/phase-table construction and noise-trace recording exactly
// once; the byte bound keeps an adversarial sweep (thousands of
// distinct jobs, each with megabytes of recorded traces) from growing
// without limit — cold entries fall off the tail and rebuild on the
// next miss.
package rollout

import (
	"sync"

	"seesaw/internal/cosim"
	"seesaw/internal/telemetry"
)

// DefaultCacheBytes bounds a StateCache's accounted memory unless the
// caller chooses otherwise: 512 MiB holds hundreds of 1024-node jobs
// at the benchmark episode shape and a dozen-plus at the paper's full
// 400-step length.
const DefaultCacheBytes int64 = 512 << 20

// entrySizeFloor is the accounted size of an entry whose job records
// no noise traces (faulted jobs, instrumented or not):
// the phase tables and schedule are small but not free, and a zero
// size would let unbounded numbers of such entries pile up below the
// byte bound.
const entrySizeFloor int64 = 16 << 10

// StateCache shares cosim.JobState precompute across environments: one
// entry per distinct job key (workload, topology seeds, noise, faults,
// classes), built once and then read-only. A cache is safe for
// concurrent use; Batch hands one cache to every worker's Env so a grid
// sweep pays each job's schedule/phase-table construction — and its
// noise-trace recording — exactly once.
//
// The cache is bounded: each entry is accounted at its noise-trace
// footprint (JobState.TraceBytes, floored for trace-free jobs) and the
// least-recently-used entries are evicted once the total exceeds the
// byte budget. Eviction only drops the cache's reference — environments
// holding the JobState keep using it; the next miss on that key
// rebuilds. Concurrent misses on one key share a single build
// (singleflight): latecomers block until the builder finishes and see
// its result, so no trace is ever recorded twice.
type StateCache struct {
	mu      sync.Mutex
	max     int64
	bytes   int64
	entries map[string]*cacheEntry
	// LRU list, most recent at head. In-flight entries (still
	// building) live in the map but not in the list, so eviction can
	// never race a build.
	head, tail *cacheEntry

	hits, misses, evictions uint64

	// Telemetry handles, resolved once by SetTelemetry; nil without a
	// hub. The local counters above stay authoritative for Stats.
	hitsM, missesM, evictionsM, bytesM *telemetry.Metric

	// build is the JobState constructor, a seam for the singleflight
	// and eviction tests; nil means cosim.NewJobState.
	build func(cosim.Config) (*cosim.JobState, error)
}

// cacheEntry is one key's slot. ready is closed when st/err are final;
// linked/size are guarded by the cache mutex.
type cacheEntry struct {
	key        string
	st         *cosim.JobState
	err        error
	size       int64
	ready      chan struct{}
	prev, next *cacheEntry
	linked     bool
}

// NewStateCache returns an empty cache bounded at DefaultCacheBytes.
func NewStateCache() *StateCache { return NewStateCacheBytes(DefaultCacheBytes) }

// NewStateCacheBytes returns an empty cache bounded at maxBytes of
// accounted JobState memory; maxBytes <= 0 means DefaultCacheBytes.
// The newest entry is always retained, so a single job larger than the
// bound still caches (and evicts everything else).
func NewStateCacheBytes(maxBytes int64) *StateCache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	return &StateCache{max: maxBytes, entries: map[string]*cacheEntry{}}
}

// SetTelemetry mirrors the cache's counters into the hub's metric
// registry (rollout_trace_cache_{hits,misses,evictions}_total and the
// rollout_trace_cache_bytes gauge). Call before the cache is shared;
// a nil hub is a no-op.
func (c *StateCache) SetTelemetry(h *telemetry.Hub) {
	if h == nil {
		return
	}
	reg := h.Registry()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hitsM = reg.Counter("rollout_trace_cache_hits_total",
		"JobState cache lookups served from a cached entry.").With()
	c.missesM = reg.Counter("rollout_trace_cache_misses_total",
		"JobState cache lookups that built (or joined a build of) a new entry.").With()
	c.evictionsM = reg.Counter("rollout_trace_cache_evictions_total",
		"JobState cache entries dropped by the LRU byte bound.").With()
	c.bytesM = reg.Gauge("rollout_trace_cache_bytes",
		"Accounted bytes of cached JobState precompute (noise traces dominate).").With()
}

// CacheStats is a point-in-time summary of a cache's counters.
type CacheStats struct {
	// Hits and Misses count lookups; a miss that joined another
	// goroutine's in-flight build still counts as a miss (the entry was
	// not yet usable), but no duplicate build ran.
	Hits, Misses uint64
	// Evictions counts entries dropped by the byte bound.
	Evictions uint64
	// Bytes is the currently accounted memory; Entries the live count.
	Bytes   int64
	Entries int
}

// Stats returns the cache's current counters.
func (c *StateCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Bytes: c.bytes, Entries: len(c.entries),
	}
}

// unlink removes e from the LRU list.
func (c *StateCache) unlink(e *cacheEntry) {
	if !e.linked {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
	e.linked = false
}

// pushFront makes e the most-recently-used entry.
func (c *StateCache) pushFront(e *cacheEntry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
	e.linked = true
}

// evictLocked drops least-recently-used entries until the accounted
// bytes fit the bound, always sparing the head (the entry that just
// missed in — a job larger than the whole bound must still cache).
func (c *StateCache) evictLocked() {
	for c.bytes > c.max && c.tail != nil && c.tail != c.head {
		e := c.tail
		c.unlink(e)
		delete(c.entries, e.key)
		c.bytes -= e.size
		c.evictions++
		if c.evictionsM != nil {
			c.evictionsM.Inc()
		}
	}
	if c.bytesM != nil {
		c.bytesM.Set(float64(c.bytes))
	}
}

// state returns the cached JobState for key, building it from cfg on
// first use. Concurrent callers of one key share a single build.
func (c *StateCache) state(key string, cfg cosim.Config) (*cosim.JobState, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.linked {
			c.unlink(e)
			c.pushFront(e)
			c.hits++
			if c.hitsM != nil {
				c.hitsM.Inc()
			}
			c.mu.Unlock()
			return e.st, e.err
		}
		// In-flight: join the build.
		c.misses++
		if c.missesM != nil {
			c.missesM.Inc()
		}
		c.mu.Unlock()
		<-e.ready
		return e.st, e.err
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	if c.missesM != nil {
		c.missesM.Inc()
	}
	build := c.build
	c.mu.Unlock()

	if build == nil {
		build = cosim.NewJobState
	}
	st, err := build(cfg)

	c.mu.Lock()
	e.st, e.err = st, err
	if err != nil {
		// Failed builds do not occupy the cache; the key stays buildable
		// (and re-fails) on the next lookup.
		delete(c.entries, e.key)
	} else {
		e.size = st.TraceBytes()
		if e.size < entrySizeFloor {
			e.size = entrySizeFloor
		}
		c.bytes += e.size
		c.pushFront(e)
		c.evictLocked()
	}
	c.mu.Unlock()
	close(e.ready)
	return st, err
}

package rollout

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"seesaw/internal/cosim"
	"seesaw/internal/telemetry"
)

// countingCache wires the build seam to a counter so tests can observe
// exactly how many JobStates were constructed per key.
func countingCache(maxBytes int64, builds *atomic.Int64, gate chan struct{}) *StateCache {
	c := NewStateCacheBytes(maxBytes)
	c.build = func(cfg cosim.Config) (*cosim.JobState, error) {
		builds.Add(1)
		if gate != nil {
			<-gate
		}
		return cosim.NewJobState(cfg)
	}
	return c
}

// cacheSpec returns a tiny distinct job per index (the Seed forks the
// job key), used to fill a cache with many entries.
func cacheSpec(t *testing.T, i int) Spec {
	t.Helper()
	s := testSpec("", t)
	s.Faults = nil // fault-free jobs record traces, so entries have real sizes
	s.Seed = uint64(100 + i)
	return s
}

// TestStateCacheBound pins the byte bound: filling the cache past its
// budget evicts least-recently-used entries, the accounted bytes stay
// within the bound, and a recently-touched entry survives over a
// colder one.
func TestStateCacheBound(t *testing.T) {
	var builds atomic.Int64
	// Size the bound from one real entry so the test tracks the episode
	// shape: room for two entries plus slack, not three.
	probe := countingCache(0, &builds, nil)
	s0 := cacheSpec(t, 0)
	st0, err := probe.state(s0.jobKey(), s0.cosimConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	one := st0.TraceBytes()
	if one < entrySizeFloor {
		one = entrySizeFloor
	}

	c := countingCache(2*one+one/2, &builds, nil)
	builds.Store(0)
	keys := make([]string, 3)
	for i := range keys {
		s := cacheSpec(t, i)
		keys[i] = s.jobKey()
		if _, err := c.state(keys[i], s.cosimConfig(nil)); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			// Touch entry 0 so entry 1 is the LRU victim when 2 lands.
			if _, err := c.state(keys[0], cacheSpec(t, 0).cosimConfig(nil)); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions after overfilling: %+v", st)
	}
	if st.Bytes > 2*one+one/2 {
		t.Fatalf("accounted bytes %d exceed the bound %d", st.Bytes, 2*one+one/2)
	}
	if st.Hits != 1 || st.Misses != 3 {
		t.Fatalf("hits/misses = %d/%d, want 1/3", st.Hits, st.Misses)
	}
	// keys[1] was LRU at eviction time: re-requesting it rebuilds,
	// re-requesting the touched keys[0] must not.
	before := builds.Load()
	if _, err := c.state(keys[0], cacheSpec(t, 0).cosimConfig(nil)); err != nil {
		t.Fatal(err)
	}
	if builds.Load() != before {
		t.Error("recently-used entry was evicted")
	}
	if _, err := c.state(keys[1], cacheSpec(t, 1).cosimConfig(nil)); err != nil {
		t.Fatal(err)
	}
	if builds.Load() != before+1 {
		t.Error("LRU entry survived past the bound")
	}
}

// TestStateCacheSingleflight pins the get-or-build contract: concurrent
// lookups of one cold key share a single build — no JobState (and so no
// noise trace) is ever recorded twice. Run under -race this also checks
// the handoff publishes the built state safely.
func TestStateCacheSingleflight(t *testing.T) {
	var builds atomic.Int64
	gate := make(chan struct{})
	c := countingCache(0, &builds, gate)
	s := cacheSpec(t, 0)
	key, cfg := s.jobKey(), s.cosimConfig(nil)

	const callers = 8
	states := make([]*cosim.JobState, callers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			st, err := c.state(key, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			states[i] = st
		}(i)
	}
	close(start)
	close(gate) // release the builder once everyone is racing
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one key, want 1", n)
	}
	for i := 1; i < callers; i++ {
		if states[i] != states[0] {
			t.Fatalf("caller %d got a different JobState", i)
		}
	}
	st := c.Stats()
	if st.Hits+st.Misses != callers {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, callers)
	}
}

// TestStateCacheErrorNotCached: a failed build leaves the key
// buildable — the next lookup retries instead of replaying the error
// forever.
func TestStateCacheErrorNotCached(t *testing.T) {
	var builds atomic.Int64
	c := NewStateCacheBytes(0)
	boom := errors.New("boom")
	c.build = func(cfg cosim.Config) (*cosim.JobState, error) {
		if builds.Add(1) == 1 {
			return nil, boom
		}
		return cosim.NewJobState(cfg)
	}
	s := cacheSpec(t, 0)
	if _, err := c.state(s.jobKey(), s.cosimConfig(nil)); !errors.Is(err, boom) {
		t.Fatalf("first lookup error = %v, want boom", err)
	}
	if _, err := c.state(s.jobKey(), s.cosimConfig(nil)); err != nil {
		t.Fatalf("retry after failed build: %v", err)
	}
	if builds.Load() != 2 {
		t.Fatalf("%d builds, want 2 (fail, then retry)", builds.Load())
	}
}

// TestStateCacheTelemetry: with a hub attached the cache mirrors its
// counters into the metric registry the -cache-stats flag reads.
func TestStateCacheTelemetry(t *testing.T) {
	hub := telemetry.New(telemetry.Options{})
	var builds atomic.Int64
	c := countingCache(1, &builds, nil) // 1-byte bound: every insert evicts the previous entry
	c.SetTelemetry(hub)
	for i := 0; i < 3; i++ {
		s := cacheSpec(t, i)
		if _, err := c.state(s.jobKey(), s.cosimConfig(nil)); err != nil {
			t.Fatal(err)
		}
	}
	s := cacheSpec(t, 2) // newest entry is retained: this is a hit
	if _, err := c.state(s.jobKey(), s.cosimConfig(nil)); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	reg := hub.Registry()
	for _, row := range []struct {
		name string
		want float64
	}{
		{"rollout_trace_cache_hits_total", float64(st.Hits)},
		{"rollout_trace_cache_misses_total", float64(st.Misses)},
		{"rollout_trace_cache_evictions_total", float64(st.Evictions)},
		{"rollout_trace_cache_bytes", float64(st.Bytes)},
	} {
		var got float64
		if row.name == "rollout_trace_cache_bytes" {
			got = reg.Gauge(row.name, "").With().Value()
		} else {
			got = reg.Counter(row.name, "").With().Value()
		}
		if got != row.want {
			t.Errorf("%s = %g, want %g", row.name, got, row.want)
		}
	}
	if st.Hits != 1 || st.Evictions == 0 {
		t.Errorf("stats %+v: want 1 hit and nonzero evictions", st)
	}
}

// TestStateCacheSharedAcrossBatches: a caller-supplied cache carries
// its entries (and stats) across Batch invocations.
func TestStateCacheSharedAcrossBatches(t *testing.T) {
	points, err := Grid{Nodes: []int{8}, Steps: 8, Policies: []string{"seesaw", "time-aware"}}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cache := NewStateCache()
	var first CacheStats
	for round := 0; round < 2; round++ {
		if _, err := Batch(context.Background(), points, Options{Cache: cache, Jobs: 2}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if round == 0 {
			first = cache.Stats()
		}
	}
	st := cache.Stats()
	if st.Entries != 1 {
		t.Fatalf("%d cache entries for one job, want 1", st.Entries)
	}
	// Both workers may miss in the first batch (one joins the other's
	// in-flight build); the second batch must be served from the cache.
	if st.Misses != first.Misses {
		t.Errorf("second batch missed %d times, want 0 (stats: %+v)", st.Misses-first.Misses, st)
	}
	if st.Hits <= first.Hits {
		t.Errorf("no hits in the second batch of one job (stats: %+v)", st)
	}
}

// TestStateCacheKeyIndependence sanity-checks the size accounting used
// above: distinct jobs get distinct entries and the accounted bytes
// grow with each.
func TestStateCacheKeyIndependence(t *testing.T) {
	c := NewStateCache()
	var last int64
	for i := 0; i < 3; i++ {
		s := cacheSpec(t, i)
		if _, err := c.state(s.jobKey(), s.cosimConfig(nil)); err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		if st.Entries != i+1 {
			t.Fatalf("after %d inserts: %d entries", i+1, st.Entries)
		}
		if st.Bytes <= last {
			t.Fatalf("bytes did not grow: %d -> %d", last, st.Bytes)
		}
		last = st.Bytes
	}
	if c.Stats().Evictions != 0 {
		t.Error("evictions under an unfilled default bound")
	}
	// Keys must fork on the memo flag so live and replayed JobStates
	// never share an entry.
	s := cacheSpec(t, 0)
	memoKey := s.jobKey()
	s.NoNoiseMemo = true
	if s.jobKey() == memoKey {
		t.Error("NoNoiseMemo does not fork the job key")
	}
	if want := memoKey + "/nomemo"; s.jobKey() != want {
		t.Errorf("nomemo key = %q, want %q", s.jobKey(), want)
	}
}

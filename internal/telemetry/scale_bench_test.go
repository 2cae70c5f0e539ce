package telemetry

import (
	"fmt"
	"sync"
	"testing"
)

// BenchmarkCounterHotPath measures one cached counter child under
// concurrent increments: every writer CAS-adds into the series' one
// atomic word. Run with -cpu 1,2 to see what a second writer costs.
func BenchmarkCounterHotPath(b *testing.B) {
	h := New(Options{})
	m := h.Registry().Counter("bench_counter_total", "bench").With()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.Inc()
		}
	})
	if got, want := m.Value(), float64(b.N); got != want {
		b.Fatalf("count = %g, want %g (lost increments)", got, want)
	}
}

// BenchmarkHistogramHotPath measures one cached histogram child under
// concurrent observations (the shape of the rendezvous-wait path).
func BenchmarkHistogramHotPath(b *testing.B) {
	h := New(Options{})
	m := h.Registry().Histogram("bench_hist_seconds", "bench", LatencyBuckets()).With()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.Observe(3.2e-4)
		}
	})
	if got, want := m.Count(), uint64(b.N); got != want {
		b.Fatalf("count = %d, want %d (lost observations)", got, want)
	}
}

// BenchmarkEmit measures the event ring under concurrent emitters (no
// sink), the hot path of an eventful run: each event takes the hub's
// lock once.
func BenchmarkEmit(b *testing.B) {
	h := New(Options{RingSize: 4096})
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Emit(CapWritten{T: 1, Node: "sim", CapW: 110})
		}
	})
}

// BenchmarkEventfulNodes drives the full RAPL telemetry surface the way
// a scaled job does: nodes cap-writing, throttling and violating
// through per-node CapSites every interval, with a subset eventful.
// One op is one interval over all nodes.
func BenchmarkEventfulNodes(b *testing.B) {
	for _, nodes := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			h := New(Options{RingSize: 4096})
			sites := make([]*CapSite, nodes)
			for i := range sites {
				// Mirror the drivers: metrics label every node, the event
				// stream follows one representative node per partition.
				sites[i] = h.CapSiteFor(fmt.Sprintf("node-%04d", i), i < 2)
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				t := float64(n)
				for i, s := range sites {
					s.CapWritten(t, "n", 110+float64(i%8), false)
					if i%16 == 0 {
						s.ThrottleEngaged(t, "n", 140, 110)
					}
					if i%64 == 0 {
						s.BudgetViolation(t, "n", 118, 110)
					}
				}
			}
		})
	}
}

// TestConcurrentWriters pins the metrics' correctness contract under
// -race at high concurrency: 1024 writers hammering one counter, one
// Add-gauge and one histogram child concurrently with scrapes, and
// every write accounted for at the end.
func TestConcurrentWriters(t *testing.T) {
	const writers, perWriter = 1024, 64
	h := New(Options{})
	counter := h.Registry().Counter("race_counter_total", "race").With()
	gauge := h.Registry().Gauge("race_gauge", "race").With()
	hist := h.Registry().Histogram("race_hist", "race", []float64{1, 2, 5}).With()

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				counter.Inc()
				gauge.Add(2)
				hist.Observe(float64(i % 7))
			}
		}(w)
	}
	// Concurrent scrapes must see consistent (if partial) state.
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for i := 0; i < 32; i++ {
			_ = counter.Value()
			_ = hist.BucketCounts()
			_ = h.Registry().Snapshot()
		}
	}()
	close(start)
	wg.Wait()
	snapWG.Wait()

	total := float64(writers * perWriter)
	if got := counter.Value(); got != total {
		t.Errorf("counter = %g, want %g", got, total)
	}
	if got := gauge.Value(); got != 2*total {
		t.Errorf("gauge = %g, want %g", got, 2*total)
	}
	if got := hist.Count(); got != uint64(total) {
		t.Errorf("histogram count = %d, want %d", got, uint64(total))
	}
	var bucketSum uint64
	for _, c := range hist.BucketCounts() {
		bucketSum += c
	}
	if bucketSum != uint64(total) {
		t.Errorf("bucket counts sum to %d, want %d", bucketSum, uint64(total))
	}
}

// TestEventRingConcurrentEmitters pins the event ring under -race:
// 1024 concurrent emitters, with readers snapshotting mid-stream; the
// total emitted count must be exact and a quiesced snapshot full.
func TestEventRingConcurrentEmitters(t *testing.T) {
	const emitters, perEmitter = 1024, 16
	h := New(Options{RingSize: 512})
	var wg sync.WaitGroup
	start := make(chan struct{})
	for e := 0; e < emitters; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			<-start
			for i := 0; i < perEmitter; i++ {
				h.Emit(CapWritten{T: float64(i), Node: "sim", CapW: float64(e)})
			}
		}(e)
	}
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for i := 0; i < 64; i++ {
			if evs := h.Events(); len(evs) > 512 {
				t.Errorf("snapshot exceeds ring: %d events", len(evs))
				return
			}
		}
	}()
	close(start)
	wg.Wait()
	snapWG.Wait()

	if got := h.emitted; got != emitters*perEmitter {
		t.Errorf("emitted %d events, want %d", got, emitters*perEmitter)
	}
	if got := len(h.Events()); got != 512 {
		t.Errorf("quiesced snapshot = %d events, want full ring of 512", got)
	}
}

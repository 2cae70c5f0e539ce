package lammps

import "testing"

var workSink WorkCount

// BenchmarkBuildNeighbors times one cell-list rebuild of the default
// 512-atom box (3 cells per side).
func BenchmarkBuildNeighbors(b *testing.B) {
	s := MustNew(DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workSink = s.BuildNeighbors()
	}
}

// BenchmarkComputeForces times one force evaluation over the default
// box's neighbor list.
func BenchmarkComputeForces(b *testing.B) {
	s := MustNew(DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workSink = s.ComputeForces()
	}
}

// TestKernelsAllocateNothing checks that the cell-list scratch lives on
// the System: a neighbor rebuild after the first allocates nothing, and
// neither does a force evaluation, on a box whose stencil reaches every
// cell and on one where it prunes.
func TestKernelsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime perturbs allocation counts")
	}
	for _, atoms := range []int{512, 1200} {
		cfg := DefaultConfig()
		cfg.Atoms = atoms
		s := MustNew(cfg)
		if got := testing.AllocsPerRun(5, func() { s.BuildNeighbors() }); got != 0 {
			t.Errorf("atoms=%d: BuildNeighbors allocates %v times per rebuild, want 0", atoms, got)
		}
		if got := testing.AllocsPerRun(5, func() { s.ComputeForces() }); got != 0 {
			t.Errorf("atoms=%d: ComputeForces allocates %v times per call, want 0", atoms, got)
		}
	}
}

package mpi

import (
	"fmt"
	"testing"
)

// Scale microbenchmarks for the virtual-MPI substrate. Each b.N
// iteration is one operation issued by every rank (collectives) or one
// fan-in round (point-to-point), so ns/op is the wall-clock cost of one
// substrate operation at that rank count. `make check` smoke-runs them
// with -benchtime 1x (`make bench-scale-smoke`).

// benchCollectiveRanks are the collective scale points: the paper's
// largest Theta partition (1024) plus the 4096-rank frontier, with 256
// as the small anchor.
var benchCollectiveRanks = []int{256, 1024, 4096}

// BenchmarkBarrier measures the pure rendezvous cost: no payload, no
// reduction work, so it isolates the wakeup path.
func BenchmarkBarrier(b *testing.B) {
	for _, n := range benchCollectiveRanks {
		b.Run(fmt.Sprintf("ranks=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			if err := Run(n, DefaultCost(), func(r *Rank) {
				for i := 0; i < b.N; i++ {
					r.World().Barrier()
				}
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAllreduceSum measures the dominant collective of the in-situ
// loop (thermodynamic output and PoLiMER exchanges are allreduce-shaped)
// with the small float64 vectors those call sites use.
func BenchmarkAllreduceSum(b *testing.B) {
	for _, n := range benchCollectiveRanks {
		b.Run(fmt.Sprintf("ranks=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			if err := Run(n, DefaultCost(), func(r *Rank) {
				vals := []float64{float64(r.WorldRank()), 1, 2}
				want := float64(n) * (float64(n) - 1) / 2
				for i := 0; i < b.N; i++ {
					got := r.World().AllreduceSum(vals)
					if got[0] != want {
						panic(fmt.Sprintf("allreduce sum = %v, want %v", got[0], want))
					}
				}
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAllreduceMax exercises the other typed reduction the power
// stack issues on every synchronization (clock merging).
func BenchmarkAllreduceMax(b *testing.B) {
	for _, n := range benchCollectiveRanks {
		b.Run(fmt.Sprintf("ranks=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			if err := Run(n, DefaultCost(), func(r *Rank) {
				vals := []float64{float64(r.WorldRank())}
				for i := 0; i < b.N; i++ {
					got := r.World().AllreduceMax(vals)
					if got[0] != float64(n-1) {
						panic("allreduce max wrong")
					}
				}
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkFanInRecv measures the mailbox under the in-situ sharing
// pattern: many simulation ranks feed one analysis rank. Each iteration
// has every sender deposit one tagged message and the receiver drain
// them in rank order, so a linear-scan mailbox pays O(pending) per
// match while an indexed one pays O(1).
func BenchmarkFanInRecv(b *testing.B) {
	for _, senders := range []int{255, 1023} {
		b.Run(fmt.Sprintf("senders=%d", senders), func(b *testing.B) {
			b.ReportAllocs()
			n := senders + 1
			if err := Run(n, DefaultCost(), func(r *Rank) {
				const tag = 7
				for i := 0; i < b.N; i++ {
					if r.WorldRank() == 0 {
						for src := 1; src < n; src++ {
							if got := r.Recv(src, tag).(int); got != src {
								panic("fan-in payload mismatch")
							}
						}
					} else {
						r.Send(0, tag, r.WorldRank(), 8)
					}
					r.World().Barrier()
				}
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkRecvDeepQueue receives against a deep backlog of non-matching
// messages: 512 tags are deposited and drained in reverse order, the
// worst case for a front-to-back queue scan.
func BenchmarkRecvDeepQueue(b *testing.B) {
	const depth = 512
	b.ReportAllocs()
	if err := Run(2, DefaultCost(), func(r *Rank) {
		for i := 0; i < b.N; i++ {
			if r.WorldRank() == 0 {
				for tag := 0; tag < depth; tag++ {
					r.Send(1, tag, tag, 8)
				}
			} else {
				for tag := depth - 1; tag >= 0; tag-- {
					if got := r.Recv(0, tag).(int); got != tag {
						panic("deep-queue payload mismatch")
					}
				}
			}
			r.World().Barrier()
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSplit measures sub-communicator construction at scale (the
// in-situ driver splits the world once per job).
func BenchmarkSplit(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("ranks=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			if err := Run(n, DefaultCost(), func(r *Rank) {
				for i := 0; i < b.N; i++ {
					sub := r.World().Split(r.WorldRank()%2, r.WorldRank())
					if sub.Size() != n/2 {
						panic("split size wrong")
					}
				}
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

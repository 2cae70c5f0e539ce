package lammps

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"testing"
)

// trajectoryHasher feeds a system's full state into a sha256, one step
// at a time, through a reused buffer.
type trajectoryHasher struct {
	h   hash.Hash
	buf []byte
}

func (th *trajectoryHasher) float(x float64) {
	th.buf = binary.LittleEndian.AppendUint64(th.buf, math.Float64bits(x))
}

func (th *trajectoryHasher) work(w WorkCount) {
	th.float(w.Ops)
	th.buf = binary.LittleEndian.AppendUint64(th.buf, uint64(w.Bytes))
}

func (th *trajectoryHasher) vecs(vs []Vec3) {
	for _, v := range vs {
		th.float(v[0])
		th.float(v[1])
		th.float(v[2])
	}
}

// state hashes everything a step produces: positions, velocities,
// forces, unwrapped positions, the energies and pressure, and the
// neighbor list in its stored order.
func (th *trajectoryHasher) state(s *System) {
	th.vecs(s.Pos)
	th.vecs(s.Vel)
	th.vecs(s.Force)
	th.vecs(s.Unwrp)
	th.float(s.KineticEnergy())
	th.float(s.PotentialEnergy())
	th.float(s.Pressure())
	for _, h := range s.nbrHead {
		th.buf = binary.LittleEndian.AppendUint64(th.buf, uint64(h))
	}
	for _, j := range s.nbrList {
		th.buf = binary.LittleEndian.AppendUint32(th.buf, uint32(j))
	}
	th.flush()
}

func (th *trajectoryHasher) flush() {
	th.h.Write(th.buf)
	th.buf = th.buf[:0]
}

// trajectoryDigest integrates a system for steps Verlet steps, building
// neighbors every step when everyStep is set (as the in-situ recording
// does at each synchronization) and on the skin criterion otherwise. It
// returns the digest of every step's work counts and state, and the
// number of rebuilds after construction.
func trajectoryDigest(cfg Config, steps int, everyStep bool) (string, int) {
	s := MustNew(cfg)
	th := &trajectoryHasher{h: sha256.New()}
	th.state(s)
	rebuilds := 0
	for i := 0; i < steps; i++ {
		th.work(s.InitialIntegrate())
		if everyStep || s.NeedsRebuild() {
			rebuilds++
			th.work(s.BuildNeighbors())
		}
		th.work(s.ComputeForces())
		th.work(s.FinalIntegrate())
		th.flush()
		th.state(s)
	}
	return fmt.Sprintf("%x", th.h.Sum(nil)), rebuilds
}

// TestTrajectoryDigests pins the bits of the MD kernels: every work
// count, every force and frame value, the energies and the neighbor
// list's order, at every step. The boxes cover the brute-force
// neighbor path (256 atoms, 2 cells per side), a stencil that reaches
// every cell (512 atoms, 3 per side) and one that prunes (1200 atoms,
// 4 per side), each rebuilding every step and on the skin criterion.
// The digests were recorded before the neighbor-build and force kernels
// were rewritten as scalar loops, which must reproduce them.
func TestTrajectoryDigests(t *testing.T) {
	cases := []struct {
		atoms, cells int
		everyStep    bool
		want         string
	}{
		{256, 2, true, "7f07e4ea6344d53c7f7f8608b6cb5b31d29b54168d94498f4c46e72ded8dbcee"},
		{256, 2, false, "3730ede37f7fad8f19439078ad5a6b7ffd8ea91d90a5dc06dea654cba8c500e3"},
		{512, 3, true, "5289989c7a130586316ce9fd73ddc16a2a73695225caff2a121c542819121489"},
		{512, 3, false, "a33ae46305cf78f395a8579b6bf52787604b390ff3c1399a050cb4df34af9358"},
		{1200, 4, true, "615bd5a4ba30a409a176b71277fabe02257cdd4bcea577ef11cfa7883a40b436"},
		{1200, 4, false, "69a79a891fdf5a9213bced5c78b02c71fcc10c2478e988af3930d95213b0565e"},
	}
	const steps = 24
	for _, tc := range cases {
		name := fmt.Sprintf("atoms=%d/every=%v", tc.atoms, tc.everyStep)
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Atoms = tc.atoms
			box := math.Cbrt(float64(cfg.Atoms) / cfg.Density)
			if cells := int(box / (cfg.Cutoff + cfg.Skin)); cells != tc.cells {
				t.Fatalf("box has %d cells per side, want %d", cells, tc.cells)
			}
			got, rebuilds := trajectoryDigest(cfg, steps, tc.everyStep)
			if rebuilds == 0 {
				t.Fatal("no neighbor rebuild ran")
			}
			if got != tc.want {
				t.Errorf("digest = %s, want %s", got, tc.want)
			}
		})
	}
}

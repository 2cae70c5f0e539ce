// Command mdrun drives the miniature molecular-dynamics engine
// standalone — the repository's equivalent of running the LAMMPS
// benchmark without the in-situ machinery. It can equilibrate, run NVE
// or thermostatted production, stream a thermo log, and dump an XYZ
// trajectory readable by standard MD visualization tools.
//
// Usage:
//
//	mdrun [-atoms N] [-density R] [-temp T] [-steps N] [-equil N]
//	      [-thermostat none|rescale|berendsen] [-thermo-every N]
//	      [-dump traj.xyz] [-dump-every N] [-seed N]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"

	"seesaw/internal/lammps"
)

func main() {
	atoms := flag.Int("atoms", 512, "atoms in the box")
	density := flag.Float64("density", 0.8, "reduced number density")
	temp := flag.Float64("temp", 1.0, "reduced temperature")
	steps := flag.Int("steps", 400, "production Verlet steps")
	equil := flag.Int("equil", 100, "equilibration steps before production")
	thermostat := flag.String("thermostat", "none", "production thermostat: none, rescale, berendsen")
	thermoEvery := flag.Int("thermo-every", 10, "thermo log interval (0 = off)")
	dump := flag.String("dump", "", "XYZ trajectory output path")
	dumpEvery := flag.Int("dump-every", 20, "trajectory dump interval")
	seed := flag.Uint64("seed", 1, "initialization seed")
	flag.Parse()
	if *dump != "" && *dumpEvery < 1 {
		log.Fatalf("mdrun: -dump-every must be at least 1, got %d", *dumpEvery)
	}

	cfg := lammps.DefaultConfig()
	cfg.Atoms = *atoms
	cfg.Density = *density
	cfg.Temp = *temp
	cfg.Seed = *seed
	sys, err := lammps.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "mdrun: %d atoms, box %.3f sigma, T*=%.2f rho*=%.2f\n",
		sys.N, sys.Box, cfg.Temp, cfg.Density)

	if *equil > 0 {
		if err := sys.Equilibrate(*equil); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mdrun: equilibrated %d steps, T*=%.3f\n", *equil, sys.Temperature())
	}

	var th lammps.Thermostat
	switch *thermostat {
	case "none":
	case "rescale":
		th, err = lammps.NewRescaleThermostat(cfg.Temp, 10)
	case "berendsen":
		th, err = lammps.NewBerendsenThermostat(cfg.Temp, 0.1)
	default:
		log.Fatalf("mdrun: unknown thermostat %q", *thermostat)
	}
	if err != nil {
		log.Fatal(err)
	}

	var dumpF *os.File
	var dumpW *bufio.Writer
	if *dump != "" {
		dumpF, err = os.Create(*dump)
		if err != nil {
			log.Fatal(err)
		}
		dumpW = bufio.NewWriter(dumpF)
	}

	out := bufio.NewWriter(os.Stdout)
	if *thermoEvery > 0 {
		if err := lammps.WriteThermoHeader(out); err != nil {
			log.Fatal(err)
		}
	}

	sys.Run(*steps, lammps.RunOptions{
		Thermostat: th,
		EveryStep: func(step int, s *lammps.System) {
			if *thermoEvery > 0 && step%*thermoEvery == 0 {
				if err := lammps.WriteThermo(out, s.ThermoLine()); err != nil {
					log.Fatal(err)
				}
			}
			if dumpW != nil && step%*dumpEvery == 0 {
				f := s.Snapshot()
				if err := lammps.WriteXYZ(dumpW, &f); err != nil {
					log.Fatal(err)
				}
			}
		},
	})
	if dumpW != nil {
		if err := dumpW.Flush(); err != nil {
			log.Fatal(err)
		}
		if err := dumpF.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if err := out.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "mdrun: done; final T*=%.3f P*=%.3f E=%.2f\n",
		sys.Temperature(), sys.Pressure(), sys.TotalEnergy())
}

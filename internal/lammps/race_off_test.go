//go:build !race

package lammps

const raceEnabled = false

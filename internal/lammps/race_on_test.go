//go:build race

package lammps

// raceEnabled reports whether the race detector is compiled in. Its
// runtime allocates on the program's behalf, so allocation gates skip.
const raceEnabled = true

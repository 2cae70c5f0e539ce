//go:build !race

package rollout

const raceEnabled = false

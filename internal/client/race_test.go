//go:build race

package client

// raceEnabled reports a -race build: sync.Pool drops items at random under
// the race detector, so allocation-count assertions do not hold there.
const raceEnabled = true

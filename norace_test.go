//go:build !race

package micropnp_test

const raceEnabled = false

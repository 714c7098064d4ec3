//go:build race

package envred_test

// raceEnabled reports a -race build, where sync.Pool.Put drops items at
// random on purpose, so pool refills can land in any allocation count.
const raceEnabled = true

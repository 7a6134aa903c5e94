//go:build race

package benchkit

// raceEnabled reports a -race build, under which sync.Pool drops
// entries at random by design.
const raceEnabled = true

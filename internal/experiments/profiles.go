package experiments

import "origin/internal/synth"

// ProfileNames lists the dataset profiles BuildSystem accepts, in a fixed
// order suitable for help text.
func ProfileNames() []string { return synth.ProfileNames() }

// KnownProfile reports whether BuildSystem accepts the named profile —
// the up-front check CLI entry points and the serving registry run before
// committing to a minutes-long model build (BuildSystem panics on unknown
// names, which is the right contract for internal callers but not for
// user-supplied input).
func KnownProfile(name string) bool {
	_, err := synth.ProfileByName(name)
	return err == nil
}

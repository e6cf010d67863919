package eqclass

// CheckRound checks an analysis round against the map-keyed reference
// step (see checkRound), for the corpus tests of package eqclass_test.
var CheckRound = checkRound

// SetRenumber installs f as the role renumbering hook (see renumber)
// and returns a function that removes it.
func SetRenumber(f func(a *Analysis, roles int) []int32) (restore func()) {
	renumber = f
	return func() { renumber = nil }
}

package core

// InducedBuilds reports how many induced ball graphs views have built
// so far, for tests pinning that the walks stay graph-free.
func InducedBuilds() int64 { return inducedBuilds.Load() }

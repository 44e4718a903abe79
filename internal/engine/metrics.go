package engine

import "lcp/internal/obs"

// The engine's observable quantities are its amortization story: how
// often a check found the radius's ball index warm, and how much
// was built when it wasn't.
var (
	engineViewHits   = obs.Default().Counter("lcp_engine_cache_hits_total", "Checks that found their radius's ball index already built.")
	engineViewMisses = obs.Default().Counter("lcp_engine_cache_misses_total", "Checks that built their radius's ball index.")
	engineSkeletons  = obs.Default().Counter("lcp_engine_skeletons_built_total", "Node balls indexed by ball-index builds.")
)

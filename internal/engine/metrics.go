package engine

import "lcp/internal/obs"

// The engine's observable quantities are its amortization story: how
// often a check found the radius's skeleton cache warm, and how much
// was built when it wasn't.
var (
	engineViewHits   = obs.Default().Counter("lcp_engine_cache_hits_total", "Checks that found their radius's view-skeleton cache already built.")
	engineViewMisses = obs.Default().Counter("lcp_engine_cache_misses_total", "Checks that built their radius's view-skeleton cache.")
	engineSkeletons  = obs.Default().Counter("lcp_engine_skeletons_built_total", "Proof-free view skeletons constructed by cache builds.")
	// engineBatchColumns counts proofs served by the column-wise batch
	// path, the unit the ≥2× ns/proof target is measured in.
	engineBatchColumns = obs.Default().Counter("lcp_engine_batch_columns_total", "Proofs verified through the column-wise batch path (CheckBatchColumns).")
)

// Per-run counters. These are the quantities the paper's evaluation plots:
// posting entries traversed during candidate generation (Figures 2 and 6),
// candidates generated and full similarities computed (§7.1 "similar trends
// ... omitted"), plus index-maintenance counters that explain the L2AP
// re-indexing overhead (Figure 5 discussion).
#ifndef SSSJ_CORE_STATS_H_
#define SSSJ_CORE_STATS_H_

#include <cstdint>
#include <string>

namespace sssj {

struct RunStats {
  // Candidate generation.
  uint64_t entries_traversed = 0;   // posting entries touched during CG
  uint64_t candidates_generated = 0;  // distinct candidates admitted to C
  uint64_t l2_prunes = 0;           // candidates killed by the l2bound check
  // Candidate verification.
  uint64_t verify_calls = 0;        // candidates reaching CV
  uint64_t full_dots = 0;           // exact residual dot products computed
  uint64_t pairs_emitted = 0;
  // Index maintenance.
  uint64_t vectors_processed = 0;
  uint64_t entries_indexed = 0;     // posting entries appended
  uint64_t entries_pruned = 0;      // posting entries dropped by time filter
  uint64_t reindex_events = 0;      // m-updates that triggered re-indexing
  uint64_t reindexed_vectors = 0;   // residual vectors re-scanned
  uint64_t reindexed_coords = 0;    // coordinates moved from R to the index
  uint64_t index_rebuilds = 0;      // MB only: windows indexed
  // Footprint.
  uint64_t peak_index_entries = 0;  // max live posting entries at any time
  // Wall time, filled by whoever timed the run (the bench harness,
  // sssj_cli's push phase).
  double elapsed_seconds = 0.0;

  RunStats& operator+=(const RunStats& o);
  std::string ToString() const;
};

}  // namespace sssj

#endif  // SSSJ_CORE_STATS_H_

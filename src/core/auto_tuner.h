// AutoTuner — the set-dueling controller behind IndexScheme::kAuto.
//
// The idiom is borrowed from hardware cache replacement (SRRIP vs BRRIP
// set dueling, as in the ChampSim policies): instead of modeling which
// configuration *should* win, run the competitors on a small sample of the
// live workload and count. Here the "sets" are a deterministic reservoir
// sample of each duel epoch (a fixed number of accepted items), and the
// competitors are cheap *shadow cores* — fresh single-threaded scalar
// JoinCores that replay the sample into a discard sink. The cost model is
// the paper's own work counters: entries traversed during candidate
// generation plus full dot products computed (RunStats), the two
// quantities Figures 2/6 show separating the schemes.
//
// Protocol per epoch:
//   1. Reservoir-sample `duel_sample` of the epoch's accepted items
//      (deterministic LCG seeded by the epoch number — identical runs
//      produce identical verdicts).
//   2. Replay the sample (re-sorted to time order, inter-arrival gaps
//      compressed by the sampling rate so the shadow stream has the live
//      stream's arrival density — an uncompressed sample would put every
//      item alone in its decay horizon and measure nothing but churn)
//      through two shadows: the current champion (the engine's active
//      framework×scheme) and a challenger rotating over every other
//      valid combination.
//   3. The challenger wins iff its cost is below (1 − hysteresis) × the
//      champion's — the hysteresis margin keeps borderline flips from
//      thrashing the migration path.
//   4. After `switch_after_wins` CONSECUTIVE wins by the same challenger,
//      the verdict says migrate; the engine switches schemes via the
//      portable checkpoint path and the duel restarts around the new
//      champion. A loss resets the streak and rotates the challenger.
//
// Shadow cost is a biased estimate — sampling thins pair density
// quadratically, so absolute costs are meaningless — but the *ordering*
// of schemes on the same sample is what set dueling needs, and both
// competitors see the identical sample.
#ifndef SSSJ_CORE_AUTO_TUNER_H_
#define SSSJ_CORE_AUTO_TUNER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "core/join_core.h"
#include "core/similarity.h"
#include "core/stats.h"
#include "core/stream_item.h"

namespace sssj {

// Outcome of one duel epoch, surfaced through AdaptiveOptions::on_verdict
// (the CLI prints these on stderr).
struct DuelVerdict {
  uint64_t epoch = 0;  // 1-based duel epoch number
  Framework champion_framework = Framework::kStreaming;
  IndexScheme champion_scheme = IndexScheme::kL2;
  Framework challenger_framework = Framework::kStreaming;
  IndexScheme challenger_scheme = IndexScheme::kL2;
  uint64_t champion_cost = 0;    // entries_traversed + full_dots on sample
  uint64_t challenger_cost = 0;  // same, challenger shadow
  size_t sampled_items = 0;      // reservoir size this epoch
  bool challenger_won = false;   // beat the champion by the hysteresis margin
  int streak = 0;                // consecutive wins by this challenger
  bool migrate = false;          // the engine switches to the challenger now

  std::string ToString() const;
};

// Knobs for the adaptive runtime. Carried by EngineConfig::adaptive.
struct AdaptiveOptions {
  // Enables live scheme migration (SssjEngine::SwitchScheme). STR cores
  // then keep an in-horizon retention deque that checkpoints copy instead
  // of rebuilding the live items from the index; it costs resident bytes
  // (+1.2% to +21% of live state on the perfbench workloads). Implied by
  // IndexScheme::kAuto.
  bool enable_migration = false;
  // Accepted items per duel epoch.
  uint64_t duel_epoch_items = 2048;
  // Reservoir size replayed through each shadow core per duel.
  size_t duel_sample = 96;
  // Consecutive wins (same challenger) required before migrating.
  int switch_after_wins = 3;
  // Relative margin the challenger must win by: challenger_cost <
  // (1 - hysteresis) * champion_cost. In [0, 1).
  double hysteresis = 0.05;
  // Called after every duel epoch (kAuto engines only), on the pushing
  // thread, after the migration (if any) completed.
  std::function<void(const DuelVerdict&)> on_verdict;
};

class AutoTuner {
 public:
  AutoTuner(const AdaptiveOptions& options, const DecayParams& params);

  // Observes one accepted item. Returns true when this item closed a duel
  // epoch, with `*verdict` filled in; the caller (the engine) performs the
  // migration when verdict->migrate and invokes on_verdict itself. The
  // champion passed in is the engine's CURRENT active combination — the
  // tuner never tracks it, so a failed or skipped migration self-heals on
  // the next epoch.
  bool OnItem(const StreamItem& item, Framework champion_framework,
              IndexScheme champion_scheme, DuelVerdict* verdict);

  // The duel cost model: posting entries traversed during candidate
  // generation + exact dot products computed.
  static uint64_t DuelCost(const RunStats& stats);

  uint64_t epochs_completed() const { return epoch_; }

 private:
  uint64_t NextRand();
  void ReseedForEpoch(uint64_t epoch);
  // Advances the challenger cursor to the next candidate combination that
  // differs from the champion.
  void RotateChallenger(Framework champion_framework,
                        IndexScheme champion_scheme);
  uint64_t ShadowCost(Framework framework, IndexScheme scheme) const;

  AdaptiveOptions options_;
  DecayParams params_;
  Stream sample_;              // the epoch's reservoir
  uint64_t seen_in_epoch_ = 0;
  uint64_t epoch_ = 0;         // completed duel epochs
  uint64_t rng_ = 0;
  size_t challenger_idx_ = 0;  // cursor into the candidate table
  int streak_ = 0;             // current challenger's consecutive wins
};

}  // namespace sssj

#endif  // SSSJ_CORE_AUTO_TUNER_H_

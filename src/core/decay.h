// Generalized time-decay functions — the paper's closing future-work item
// ("extending our model for different definitions of time-dependent
// similarity", §8).
//
// A decay function f maps a time gap Δt ≥ 0 to a factor in [0, 1] with
// f(0) = 1 and f monotone non-increasing. The generalized similarity is
//   sim_f(x, y) = dot(x, y) · f(|t(x) − t(y)|),
// and the generalized horizon is τ_f(θ) = sup { Δt : f(Δt) ≥ θ }.
//
// Every ℓ2 pruning rule of the paper survives this generalization verbatim
// (the Appendix A proof only uses f ≤ 1 and Cauchy–Schwarz):
//   remscore = rs2·f(Δt), l2bound = C + ||x'||·||y'||·f(Δt),
//   ps1 = (C + Q)·f(Δt).
// The exponential-specific structure (the m̂λ decayed max of L2AP, whose
// exactness needs order preservation under decay — true only when all
// entries decay at the same exponential rate) does NOT generalize, which
// is one more reason the paper's L2 index is the right streaming design.
//
// Provided families:
//   Exponential(λ):      e^{−λΔt}                 (the paper's definition)
//   Polynomial(α, s):    (1 + Δt/s)^{−α}          (heavy-tailed forgetting)
//   SlidingWindow(W):    1 if Δt ≤ W else 0       (classic window join)
//
// StreamL2Index and StreamInvIndex therefore accept any DecayFunction: the
// decay is a compile-time policy of their scans (index/l2_phases.h), and
// an exponential decay runs the ExponentialDecay instantiation below, the
// same code as the paper's DecayParams constructors. STR-L2AP stays
// exponential-only for the m̂λ reason above.
#ifndef SSSJ_CORE_DECAY_H_
#define SSSJ_CORE_DECAY_H_

#include <cmath>
#include <string>

#include "core/types.h"

namespace sssj {

class DecayFunction {
 public:
  enum class Kind { kExponential, kPolynomial, kSlidingWindow };

  // e^{−λΔt}; λ ≥ 0 (λ = 0 → no forgetting, infinite horizon).
  static DecayFunction Exponential(double lambda);
  // (1 + Δt/scale)^{−α}; α ≥ 0, scale > 0.
  static DecayFunction Polynomial(double alpha, double scale = 1.0);
  // 1 on [0, window], 0 beyond; window ≥ 0.
  static DecayFunction SlidingWindow(double window);

  Kind kind() const { return kind_; }
  // λ of an Exponential decay; 0 for the other kinds.
  double lambda() const { return kind_ == Kind::kExponential ? a_ : 0.0; }

  // f(Δt) ∈ [0, 1]. Δt < 0 is treated as |Δt|.
  double Eval(double dt) const;

  // τ_f(θ) for θ ∈ (0, 1]: the largest gap at which a perfect content
  // match can still pass the threshold. +inf when f never drops below θ.
  double Horizon(double theta) const;

  std::string ToString() const;

 private:
  DecayFunction(Kind kind, double a, double b) : kind_(kind), a_(a), b_(b) {}

  Kind kind_;
  double a_;  // λ / α / window
  double b_;  // unused / scale / unused
};

// e^{−λΔt} as a scan's decay policy: exactly this expression, with no
// dispatch on the decay kind. Callers pass Δt ≥ 0.
struct ExponentialDecay {
  double lambda;
  double operator()(Timestamp dt) const { return std::exp(-lambda * dt); }
};

}  // namespace sssj

#endif  // SSSJ_CORE_DECAY_H_

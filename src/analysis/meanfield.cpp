#include "analysis/meanfield.hpp"

#include <algorithm>
#include <cmath>

namespace sst::analysis {
namespace {

// State-vector indices (stages IC_1..IC_k follow kIc0).
constexpr int kN = 0;    // live records
constexpr int kF = 1;    // fresh at the representative receiver
constexpr int kS = 2;    // stale (TTL-expired while still live)
constexpr int kIh = 3;   // inconsistent, pending in the hot queue
constexpr int kRqd = 4;  // recovering: loss detected / NACK in flight
constexpr int kRqr = 5;  // recovering: repair pending in the hot queue
constexpr int kHr = 6;   // sender-side pending repair entries (cohort-wide)
constexpr int kRt = 7;   // recovering: lost repair, waiting out the retry
                         // timeout before re-NACKing
constexpr int kIc0 = 8;  // first cold-cycle Erlang stage

constexpr double kTiny = 1e-12;

double nonneg(double x) { return x > 0.0 ? x : 0.0; }

// C-infinity max: RK4's O(h^4) order needs the RHS smooth along the
// trajectory, and a hard max() crossed mid-run (cold-start transients cross
// both the join-queue floor and the hot capacity cap) knocks the local
// error down to O(h^2) at the crossing step. eps is in squared units of the
// operands; the result exceeds true max by at most sqrt(eps)/2, at the
// crossing only.
double smax(double a, double b, double eps) {
  const double d = a - b;
  return 0.5 * (a + b + std::sqrt(d * d + eps));
}

}  // namespace

FluidIntegrator::FluidIntegrator(FluidParams params) : p_(params) {
  p_.cold_stages = std::clamp(p_.cold_stages, 1, 64);
  nack_loss_ = p_.nack_loss < 0.0 ? p_.loss : p_.nack_loss;

  // Backoff-weighted mean re-NACK wait for a lost repair. The receiver's
  // scanner re-requests a missing seq once its age passes
  // retry_timeout * backoff^retries, and the scan grid itself has period
  // retry_timeout, adding half a period on average. Attempts are reached
  // with geometric weight (each needs the previous repair lost too), capped
  // at max_retries, after which the loss is abandoned to the cold cycle.
  {
    // A given retry fails (escalating the backoff) if the re-NACK or the
    // repair it triggers is lost.
    const double pfail = std::clamp(
        1.0 - (1.0 - nack_loss_) * (1.0 - p_.loss), 0.0, 1.0);
    const int tries = std::max(1, p_.max_retries);
    double wsum = 0.0;
    double norm = 0.0;
    double pw = 1.0;
    double thresh = 1.0;
    for (int a = 0; a < tries; ++a) {
      wsum += pw * thresh;
      norm += pw;
      pw *= pfail;
      thresh *= std::max(p_.retry_backoff, 1.0);
    }
    retry_wait_ = p_.retry_timeout * (wsum / std::max(norm, kTiny) + 0.5);
  }

  // RK4 stability wants max_rate * dt well under ~2.8. The stiffest rate in
  // the system is the cold chain through a nearly empty queue, k * mu / 1;
  // clamp dt so even that transient stays stable.
  const double max_rate =
      static_cast<double>(p_.cold_stages) * std::max(p_.mu_announce, 1e-9);
  dt_ = std::min(p_.dt, 1.0 / max_rate);
  dt_ = std::max(dt_, 1e-6);

  y_.assign(static_cast<std::size_t>(kIc0 + p_.cold_stages), 0.0);
  if (p_.initial_live > 0.0) {
    const double c0 = std::clamp(p_.initial_consistency, 0.0, 1.0);
    y_[kN] = p_.initial_live;
    y_[kF] = p_.initial_live * c0;
    // The inconsistent remainder is spread uniformly over the cold-cycle
    // chain: a record's phase within the announce cycle is uniform.
    const double rest =
        p_.initial_live * (1.0 - c0) / static_cast<double>(p_.cold_stages);
    for (int j = 0; j < p_.cold_stages; ++j) y_[kIc0 + j] = rest;
  }
  k1_ = k2_ = k3_ = k4_ = tmp_ = y_;
}

// Instantaneous service/transit rates derived from a state vector. One
// helper feeds both the ODE right-hand side and the flow counters in
// step(), so the two can never drift apart.
FluidIntegrator::Rates FluidIntegrator::compute_rates(
    const std::vector<double>& y) const {
  Rates r;
  const double n = nonneg(y[kN]);
  const double f = nonneg(y[kF]);
  const double s = nonneg(y[kS]);
  const double ih = nonneg(y[kIh]);
  const double hr = nonneg(y[kHr]);
  double ic_total = 0.0;
  for (int j = 0; j < p_.cold_stages; ++j) ic_total += nonneg(y[kIc0 + j]);
  const double n_floor =
      std::max(n, f + s + ih + nonneg(y[kRqd]) + nonneg(y[kRqr]) +
                      nonneg(y[kRt]) + ic_total);

  const bool open_loop = p_.variant == FluidVariant::kOpenLoop;
  const bool feedback = p_.variant == FluidVariant::kFeedback;
  const bool per_tx = p_.death == FluidDeath::kPerTransmission;
  const double pd = per_tx ? p_.p_death : 0.0;
  const double delta = per_tx ? 0.0 : 1.0 / std::max(p_.mean_lifetime, kTiny);
  const double p = p_.loss;
  const double h_tot = ih + hr;
  const double s_link = 1.0 / std::max(p_.mu_announce, kTiny);

  // -- hot queue ----------------------------------------------------------
  // The discrete sender serves ONE link at the full rate mu_announce and a
  // stride scheduler splits slots hot/cold by weight, with the cold cycle
  // (nearly always backlogged) soaking up every idle slot. A hot arrival
  // therefore waits: the residual of the slot in progress (the link is busy
  // whenever the cold cycle is, so ~s_link/2), the drain of the hot backlog
  // ahead of it (back-to-back s_link slots while hot holds the stride), and
  // its own transmission. That is M/D/1 with server vacations, not a
  // dedicated hot server at hot_share * mu: the dedicated-server picture
  // overstates the wait by ~1/mu_hot - 1/mu per packet. rho is estimated
  // from the hot inflow; one bootstrap pass with a backlog-proportional
  // rate breaks the inflow -> service -> inflow cycle.
  const double mu_hot = open_loop ? 0.0 : p_.hot_share * p_.mu_announce;
  double s_hot = 0.0;
  r.r_hot_tx = 0.0;
  r.r_hot_rx = 0.0;
  r.rho_hot = 0.0;
  double cold0 = open_loop ? p_.mu_announce * (n / (n + 1.0)) : 0.0;
  double inflow = p_.lambda;
  double inflow_ih = p_.lambda;
  if (!open_loop && mu_hot > kTiny) {
    const double r0 = mu_hot / (h_tot + 1.0);
    const double s0 = r0 * h_tot;
    const double nc0 = nonneg(n - h_tot);
    cold0 = (p_.mu_announce - s0) * (nc0 / (nc0 + 1.0));
    if (n_floor > kTiny) {
      inflow += p_.update_rate * (f + s + ic_total) / n_floor;
      inflow_ih = inflow;
    }
    if (feedback) {
      // Every lost data packet leaves a sequence gap at EVERY receiver —
      // including the ones that hold the record fresh (they cannot know the
      // missing seq was a redundant re-announcement). Each gap is NACKed
      // and repaired, so the pool's offered load is ~M * p per
      // transmission, not just the inconsistent share; at 25% loss roughly
      // half the hot bandwidth goes to these spurious repairs, and that
      // starvation — not the direct recovery latency — is what drags the
      // discrete E[c] down. Dedup is weak at small M: the sender
      // deduplicates a NACK only while that seq's repair is still pending.
      const double tx0 = s0 + cold0;
      const double ok0 = 1.0 - p;
      const double s_fb = 1.0 / std::max(p_.mu_nack, kTiny);
      const double retry0 =
          (1.0 - nack_loss_) / (retry_wait_ + s_fb + p_.delay);
      const double pfail0 =
          std::clamp(1.0 - (1.0 - nack_loss_) * (1.0 - p), 0.0, 1.0 - 1e-6);
      // Spurious gaps (lost transmissions of records the receiver already
      // holds — repairs for other receivers, redundant cold announces) NACK
      // once inside p * tx0 and then re-NACK like any gap. Extra retries
      // per gap follow the truncated geometric (abandonment-capped), not
      // the full 1/(1-pfail) tail.
      const double extra0 =
          pfail0 *
          (1.0 - std::pow(pfail0, std::max(p_.max_retries, 1))) /
          (1.0 - pfail0);
      const double tx_spur0 =
          r0 * nonneg(hr - nonneg(y[kRqr])) +
          (n_floor > kTiny ? cold0 * (f + s) / n_floor : 0.0);
      const double spur0 = p * tx_spur0 * extra0;
      const double seq0 = p * tx0 + retry0 * nonneg(y[kRt]) + spur0;
      const double gate0 = std::clamp(
          1.0 - hr / std::max(p_.max_pending_repairs, 1.0), 0.0, 1.0);
      // Distinct-seq thinning (see the hr_inflow derivation below): the
      // cohort's NACKs for one lost seq collapse onto ~one pool entry, so
      // the bootstrap must not feed M * q raw demand into the wait
      // estimate — at M = 10^6 that alone collapses the queue model.
      const double q0 = p * (1.0 - nack_loss_);
      const double ov0 = (1.0 / r0) / (1.0 / r0 + 1.0 / (ok0 * tx0 + kTiny) +
                                       s_fb + p_.delay);
      inflow += p_.cohort * seq0 * (1.0 - nack_loss_) * gate0 /
                (1.0 + nonneg(p_.cohort - 1.0) * q0 * ov0 * 0.5);
    }
    // The wait has two regimes. Below saturation it is the M/D/1-vacation
    // wait above (stochastic queueing even when the fluid backlog is below
    // one entry): the discrete p50 receive latency at loss 0.05 matches it
    // to the millisecond. Near saturation (the 25% feedback cell runs the
    // hot queue at rho ~ 0.97) the 1/(1-rho) wait is real — the discrete
    // mean latency sits at ~4 s even though snapshots of the backlog look
    // shallow — but it must not feed back into a formula singularity: any
    // backlog in EXCESS of the equilibrium inflow * w_low adds its own
    // drain time via the state h_tot, so storms grow w with (damping-
    // gated) pool mass and the rho term stays clamped just short of 1.
    // The cap below 1 is the closed-loop correction: NACK/retry arrivals
    // stop regenerating while their repair is pending (the sender dedups
    // against the pool), so the effective Pollaczek tail saturates. The
    // discrete mean receive latency at the near-critical cell pins the
    // saturation point at rho ~ 0.96.
    r.rho_hot = std::clamp(inflow / mu_hot, 0.0, 0.962);
    const double link_busy = std::min(1.0, (s0 + cold0) * s_link);
    const double w_low = 0.5 * s_link * link_busy +
                         0.5 * inflow * s_link * s_link / (1.0 - r.rho_hot) +
                         s_link;
    // Smooth nonneg: the equilibrium sits AT the kink, so the smoothing
    // scale must stay small against the tight loss-0 validation cells.
    // The announce-path share of h_tot (IH) drains at the receiver-visible
    // rate, so its equilibrium mass carries one propagation delay that the
    // baseline must not misread as storm backlog.
    const double xs = h_tot - inflow * w_low - inflow_ih * p_.delay;
    const double excess = 0.5 * (xs + std::sqrt(xs * xs + 1e-6));
    const double w_hot = w_low + excess / mu_hot;
    r.r_hot_tx = 1.0 / w_hot;
    // Receiver-visible transitions lag one propagation delay behind the
    // transmission.
    r.r_hot_rx = 1.0 / (w_hot + p_.delay);
    s_hot = std::min(r.r_hot_tx * h_tot, mu_hot);
  }
  r.s_hot = s_hot;

  // -- cold cycle (open loop: the only queue, over all n records) ---------
  // Work conservation: cold takes whatever bandwidth hot leaves idle. The
  // per-record rate is 1 / (wait of a record that just re-joined the tail).
  // That wait is NOT (n_cold + 1) / mu_cold: the queue it waits behind is
  // the one at JOIN time — population growth adds entries only behind it,
  // and (in lifetime mode) entries ahead that die before their slot are
  // skipped for free. Compounding the skips over the drain gives
  //   W = ln(1 + delta * Q / mu_cold) / delta
  // (-> Q / mu_cold as delta -> 0), with Q the join-time queue
  //   Q = n_cold + 1 - ndot * R0
  // shrunk by HALF the net population drift ndot over one nominal rotation
  // R0 — half, not all of it, because the Erlang chain re-evaluates its
  // stage rate at the CURRENT population as the record traverses it, which
  // already charges the growth accrued since join time once; solving
  // int a(u) du = 1 along a linearly growing queue shows the residual
  // join-time correction is ndot * R0 / 2. Both corrections are worth
  // several consistency points: at the paper's operating points delta * R
  // is O(0.5), and the saturated open-loop rig grows by ~4% of a rotation's
  // queue per rotation.
  r.mu_cold = open_loop ? p_.mu_announce
                        : std::max(p_.mu_announce - s_hot, kTiny);
  r.n_cold = open_loop ? n : nonneg(n - h_tot);
  const double rotation = (r.n_cold + 1.0) / r.mu_cold;
  const double tx0 = open_loop ? cold0 : s_hot + cold0;
  const double death0 = per_tx ? pd * tx0 : delta * n;
  const double ndot = p_.lambda - death0;
  const double q_join = smax(r.n_cold + 1.0 - 0.5 * ndot * rotation, 1.0, 1e-2);
  const double w_cold = delta > kTiny
                            ? std::log1p(delta * q_join / r.mu_cold) / delta
                            : q_join / r.mu_cold;
  r.a_cold = 1.0 / (w_cold + p_.delay);
  r.sigma = static_cast<double>(p_.cold_stages) * r.a_cold;
  r.cold_flux = r.mu_cold * (r.n_cold / (r.n_cold + 1.0));
  r.tx_total = s_hot + (open_loop ? r.cold_flux : r.cold_flux);

  // -- feedback detection / NACK path -------------------------------------
  r.kappa = 0.0;
  r.nack_pkt_rate = 0.0;
  r.r_retry = 0.0;
  r.abandon = 0.0;
  r.hr_inflow = 0.0;
  if (feedback) {
    const double ok = 1.0 - p;
    const double rt = nonneg(y[kRt]);
    const double rqr = nonneg(y[kRqr]);
    const double nu_fb = std::max(p_.mu_nack, kTiny);
    const double s_fb = 1.0 / nu_fb;
    const double detect = ok * std::max(r.tx_total, kTiny);

    // Per-receiver NACK seq demand: one seq per lost data packet (fresh or
    // not — see the spurious-repair note above), plus re-NACKs from the
    // retry scanner for genuine (tracked in RT) and spurious lost repairs.
    // The wire-loss retry constants from the constructor seed the estimate;
    // the congestion-corrected rates below refine it.
    const double retry0 =
        (1.0 - nack_loss_) / (retry_wait_ + s_fb + p_.delay);
    const double pfail0 =
        std::clamp(1.0 - (1.0 - nack_loss_) * ok, 0.0, 1.0 - 1e-6);
    // Spurious gaps have no tracked state (the record stays fresh), so
    // their retry demand is algebraic: creation rate p * (redundant tx
    // seen per receiver) times the truncated-geometric expected extra
    // retries. The first NACK of every gap — spurious or genuine — is
    // already inside p * tx_total.
    const double extra_r =
        pfail0 * (1.0 - std::pow(pfail0, std::max(p_.max_retries, 1))) /
        (1.0 - pfail0);
    const double tx_spur =
        r.r_hot_tx * nonneg(hr - rqr) +
        (n_floor > kTiny ? r.cold_flux * (f + s) / n_floor : 0.0);
    const double spur_retry = p * tx_spur * extra_r;
    const double seq_demand = p * r.tx_total + retry0 * rt + spur_retry;

    // A run of consecutive losses (mean 1/(1-p)) is detected at once and
    // rides a single NACK packet — the immediate NACK path does NOT batch
    // across gaps, which is why the feedback link can saturate even though
    // nack_batch would comfortably cover the seq demand.
    const double run =
        std::clamp(1.0 / std::max(ok, 1e-3), 1.0, std::max(p_.nack_batch, 1.0));
    r.nack_pkt_rate = seq_demand / run;

    // The per-receiver feedback link is a FIFO at nu_fb with a finite
    // queue: M/D/1 wait for the transit plus overflow drops that add to
    // the wire NACK loss. The queue-length tail matters: NACK service is
    // deterministic and arrivals are a thinned announce stream, so the
    // M/M/1/K tail (plain rho^K) badly overstates drops at rho ~ 0.8 —
    // the discrete counters show essentially zero drops there. Use the
    // two-moment M/D/1 decay sigma = rho^2 / (2 - rho) in the finite-queue
    // formula instead; past overload it degrades gracefully to the fluid
    // limit 1 - 1/sigma.
    const double rho_off = r.nack_pkt_rate / nu_fb;
    double p_drop = 0.0;
    {
      const double K = std::max(p_.fb_queue_limit, 1.0);
      const double sigma =
          rho_off * rho_off / std::max(2.0 - rho_off, 1e-3);
      if (std::abs(sigma - 1.0) < 1e-9) {
        p_drop = 1.0 / (K + 1.0);
      } else {
        const double sk = std::pow(sigma, K);
        p_drop = sk * (1.0 - sigma) / (1.0 - sk * sigma);
      }
    }
    const double nl_eff =
        std::clamp(1.0 - (1.0 - nack_loss_) * (1.0 - p_drop), 0.0, 1.0);
    const double rho_fb = std::clamp(rho_off, 0.0, 0.95);
    const double w_fb = 0.5 * s_fb * rho_fb / (1.0 - rho_fb) + s_fb;

    // Retry dynamics under the EFFECTIVE NACK loss (wire + queue drops):
    // geometric backoff weights over the scanner's escalating thresholds,
    // abandonment when all max_retries attempts fail.
    const double pfail =
        std::clamp(1.0 - (1.0 - nl_eff) * ok, 0.0, 1.0 - 1e-6);
    const int tries = std::max(1, p_.max_retries);
    double retry_wait;
    {
      double wsum = 0.0, norm = 0.0, pw = 1.0, thresh = 1.0;
      for (int a = 0; a < tries; ++a) {
        wsum += pw * thresh;
        norm += pw;
        pw *= pfail;
        thresh *= std::max(p_.retry_backoff, 1.0);
      }
      retry_wait = p_.retry_timeout * (wsum / std::max(norm, kTiny) + 0.5);
    }
    r.abandon = std::pow(pfail, tries);

    // A lost first NACK is not retried on the detect cycle: the receiver
    // waits out its retry timeout before re-NACKing, so the expected RQd
    // residence carries nl_eff / (1 - nl_eff) retry waits on top of the
    // detect + feedback transit.
    const double sojourn = 1.0 / detect + w_fb + p_.delay;
    r.kappa =
        1.0 / (sojourn + retry_wait * nl_eff / std::max(1.0 - nl_eff, 1e-3));
    r.r_retry = (1.0 - nl_eff) / (retry_wait + w_fb + p_.delay);

    // Sender repair-pool inflow, cohort-coupled: every NACK seq that
    // survives the feedback channel becomes a pool entry unless a repair
    // for that seq is already pending. The mq = M * q requesters of one
    // lost seq collapse onto mq / (1 + (mq - q) * ov / 2) distinct
    // entries: each requester is suppressed iff one of its (mq - q) / 2
    // expected predecessors' entries is still pending, with `ov` the
    // pool-wait vs NACK-arrival-spread overlap. At M = 2 this is a ~6%
    // dedup — matching the discrete counters (~0.94 repairs per NACK
    // packet, nearly every delivered seq its own repair). At large M the
    // entries per lost seq saturate near 2 / ov: the suppression that
    // makes cohort repair demand M-independent — the paper's scalability
    // story — with the damping gate as backstop. Retry re-NACKs ride the
    // same seq demand, so lost repairs re-request through here too.
    const double q = p * (1.0 - nl_eff);
    const double mq = p_.cohort * q;  // expected requesters per lost tx
    const double w_pend = r.r_hot_tx > kTiny ? 1.0 / r.r_hot_tx : 0.0;
    const double ov = w_pend / std::max(w_pend + sojourn, kTiny);
    const double gate = std::clamp(
        1.0 - hr / std::max(p_.max_pending_repairs, 1.0), 0.0, 1.0);
    r.hr_inflow = p_.cohort * seq_demand * (1.0 - nl_eff) * gate /
                  (1.0 + nonneg(mq - q) * ov * 0.5);
  }
  return r;
}

// The ODE right-hand side. Every term is a flow between named states (or a
// birth/death exchange with n), so d/dt(F + S + IH + RQd + RQr + RT +
// sum IC) equals dn/dt identically — conservation holds by construction and
// the property tests verify the numerics preserve it.
void FluidIntegrator::rhs(const std::vector<double>& y,
                          std::vector<double>& dy) const {
  std::fill(dy.begin(), dy.end(), 0.0);
  const int k = p_.cold_stages;
  const double p = p_.loss;
  const double ok = 1.0 - p;
  const double n = nonneg(y[kN]);
  const double f = nonneg(y[kF]);
  const double s = nonneg(y[kS]);
  const double ih = nonneg(y[kIh]);
  const double rqd = nonneg(y[kRqd]);
  const double rqr = nonneg(y[kRqr]);
  const double hr = nonneg(y[kHr]);
  const double rt = nonneg(y[kRt]);
  double ic_total = 0.0;
  for (int j = 0; j < k; ++j) ic_total += nonneg(y[kIc0 + j]);
  const double n_floor =
      std::max(n, f + s + ih + rqd + rqr + rt + ic_total);

  const bool open_loop = p_.variant == FluidVariant::kOpenLoop;
  const bool feedback = p_.variant == FluidVariant::kFeedback;
  const bool per_tx = p_.death == FluidDeath::kPerTransmission;
  const double pd = per_tx ? p_.p_death : 0.0;
  const double surv = 1.0 - pd;
  const double delta = per_tx ? 0.0 : 1.0 / std::max(p_.mean_lifetime, kTiny);

  const Rates rr = compute_rates(y);
  const double a_cold = rr.a_cold;
  const double sigma = rr.sigma;

  // -- workload: births, updates, lifetime deaths -------------------------
  dy[kN] += p_.lambda;
  if (open_loop) {
    dy[kIc0] += p_.lambda;  // queue tail: a full cycle away
  } else {
    dy[kIh] += p_.lambda;   // new records enter hot
  }

  if (p_.update_rate > 0.0 && n_floor > kTiny) {
    // An update bumps a uniformly chosen live record's version; the
    // receiver's copy (fresh or otherwise) is outdated from that instant.
    const double u = p_.update_rate / n_floor;
    if (open_loop) {
      // The record keeps its position in the announce cycle, uniformly
      // distributed — enter the chain in its stationary phase.
      const double spread = u * f / static_cast<double>(k);
      dy[kF] -= u * f;
      for (int j = 0; j < k; ++j) dy[kIc0 + j] += spread;
    } else {
      // The sender re-hots the key, collapsing it to hot-pending.
      // Recovering records stay put: their pending repair delivers the
      // current version anyway (the sender repairs from the live table).
      dy[kF] -= u * f;
      dy[kS] -= u * s;
      dy[kIh] += u * (f + s);
      for (int j = 0; j < k; ++j) {
        const double x = nonneg(y[kIc0 + j]);
        dy[kIc0 + j] -= u * x;
        dy[kIh] += u * x;
      }
    }
  }

  if (delta > 0.0) {
    dy[kN] -= delta * n;
    dy[kF] -= delta * f;
    dy[kS] -= delta * s;
    dy[kIh] -= delta * ih;
    dy[kRqd] -= delta * rqd;
    dy[kRqr] -= delta * rqr;
    dy[kRt] -= delta * rt;
    dy[kHr] -= delta * hr;
    for (int j = 0; j < k; ++j) dy[kIc0 + j] -= delta * nonneg(y[kIc0 + j]);
  }

  // -- cold cycle ---------------------------------------------------------
  // Chain advance; the last stage's departure is the record's transmission.
  for (int j = 0; j + 1 < k; ++j) {
    const double flow = sigma * nonneg(y[kIc0 + j]);
    dy[kIc0 + j] -= flow;
    dy[kIc0 + j + 1] += flow;
  }
  const double cold_tx = sigma * nonneg(y[kIc0 + k - 1]);
  dy[kIc0 + k - 1] -= cold_tx;
  dy[kF] += cold_tx * surv * ok;
  if (per_tx) dy[kN] -= cold_tx * pd;
  const double cold_fail = cold_tx * surv * p;
  if (feedback) {
    dy[kRqd] += cold_fail;  // gap detected, NACK/repair loop takes over
  } else {
    dy[kIc0] += cold_fail;  // re-enters the cycle at the tail
  }

  // Per-transmission deaths of records the chain does not track: fresh and
  // stale copies are announced by the same cycle at rate a_cold each.
  if (per_tx && pd > 0.0) {
    dy[kF] -= a_cold * pd * f;
    dy[kS] -= a_cold * pd * s;
    dy[kN] -= a_cold * pd * (f + s);
    if (!open_loop) {
      // Recovering records still circulate in the cold cycle too.
      dy[kRqd] -= a_cold * pd * rqd;
      dy[kRqr] -= a_cold * pd * rqr;
      dy[kRt] -= a_cold * pd * rt;
      dy[kN] -= a_cold * pd * (rqd + rqr + rt);
    }
  }

  // TTL: a fresh entry expires if no announcement lands for receiver_ttl.
  // Renewal argument: refreshes arrive at rate r = (1-p) * a_cold, so the
  // expiry hazard is the density of an inter-arrival exceeding the TTL,
  // r * exp(-r * ttl). A stale entry refreshes on the next receipt.
  if (p_.receiver_ttl > 0.0) {
    const double refresh = ok * a_cold;
    const double expire = refresh * std::exp(-refresh * p_.receiver_ttl);
    dy[kF] -= expire * f;
    dy[kS] += expire * f;
    dy[kS] -= refresh * s;
    dy[kF] += refresh * s;
  }

  if (open_loop) return;

  // -- hot queue ----------------------------------------------------------
  const double hot_tx = rr.r_hot_rx * ih;
  dy[kIh] -= hot_tx;
  dy[kF] += hot_tx * surv * ok;
  if (per_tx) dy[kN] -= hot_tx * pd;
  const double hot_fail = hot_tx * surv * p;
  if (feedback) {
    dy[kRqd] += hot_fail;
  } else {
    dy[kIc0] += hot_fail;  // cold backstop: tail of the cold cycle
  }

  if (!feedback) return;

  // -- feedback loop ------------------------------------------------------
  // Detection + NACK transit (rates in compute_rates): the receiver notices
  // the sequence gap on its next successful receipt, then the NACK crosses
  // the rate-limited per-receiver feedback link.
  const double det_flow = rr.kappa * rqd;
  dy[kRqd] -= det_flow;
  dy[kRqr] += det_flow;

  // Repair service from the shared hot queue. A lost repair is NOT
  // re-NACKed at detection speed: the receiver's scanner waits out
  // retry_timeout (escalated by retry_backoff per attempt) before asking
  // again, and after max_retries the loss is abandoned to the cold cycle —
  // both straight from ReceiverAgent::scan_retries().
  const double rep_tx = rr.r_hot_rx * rqr;
  dy[kRqr] -= rep_tx;
  dy[kF] += rep_tx * surv * ok;
  if (per_tx) dy[kN] -= rep_tx * pd;
  dy[kRt] += rep_tx * surv * p;

  const double retry_flow = rr.r_retry * rt;
  dy[kRt] -= retry_flow;
  dy[kRqr] += retry_flow * (1.0 - rr.abandon);
  dy[kIc0] += retry_flow * rr.abandon;

  // Cold backstop: recovering records still cycle through the cold queue,
  // so even a dead feedback channel (mu_nack -> 0) eventually repairs them;
  // a regular announcement also supersedes the outstanding loss (the
  // receiver clears the missing seq on any copy of the record).
  const double backstop_d = a_cold * ok * surv * rqd;
  const double backstop_r = a_cold * ok * surv * rqr;
  const double backstop_t = a_cold * ok * surv * rt;
  dy[kRqd] -= backstop_d;
  dy[kRqr] -= backstop_r;
  dy[kRt] -= backstop_t;
  dy[kF] += backstop_d + backstop_r + backstop_t;

  // -- sender repair pool (cohort-coupled) --------------------------------
  // Admission derived in compute_rates from the delivered NACK-seq rate
  // (dedup window, NACK-damping gate, effective NACK loss); retry
  // re-requests are part of that same seq demand.
  dy[kHr] += rr.hr_inflow;
  dy[kHr] -= rr.r_hot_tx * hr;
  if (per_tx) {
    // Repair transmissions of records we already hold draw deaths too;
    // attribute them across receiver states proportionally. Our own pending
    // repairs are excluded — their deaths are charged on the RQr service
    // path above.
    const double rep_death = rr.r_hot_tx * nonneg(hr - rqr) * pd;
    if (n_floor > kTiny) {
      const double w = rep_death / n_floor;
      dy[kF] -= w * f;
      dy[kS] -= w * s;
      dy[kN] -= rep_death * (f + s) / n_floor;
    }
  }
}

void FluidIntegrator::step(double h) {
  const auto dim = y_.size();
  rhs(y_, k1_);
  for (std::size_t i = 0; i < dim; ++i) tmp_[i] = y_[i] + 0.5 * h * k1_[i];
  rhs(tmp_, k2_);
  for (std::size_t i = 0; i < dim; ++i) tmp_[i] = y_[i] + 0.5 * h * k2_[i];
  rhs(tmp_, k3_);
  for (std::size_t i = 0; i < dim; ++i) tmp_[i] = y_[i] + h * k3_[i];
  rhs(tmp_, k4_);
  for (std::size_t i = 0; i < dim; ++i) {
    y_[i] += (h / 6.0) * (k1_[i] + 2.0 * k2_[i] + 2.0 * k3_[i] + k4_[i]);
  }

  // Trapezoidal accumulation of the reported integrals on the step grid.
  // (The state itself is O(h^4); the observables need only O(h^2) here.)
  const double c_new = consistency();
  const FluidOccupancy occ = occupancy();
  c_integral_.add(h * c_new);
  occ_integral_[0].add(h * occ.fresh);
  occ_integral_[1].add(h * occ.stale);
  occ_integral_[2].add(h * occ.inconsistent);
  occ_integral_[3].add(h * occ.recovering);

  // Flow counters: the same rate derivation the RHS uses, evaluated on the
  // post-step state.
  const Rates rr = compute_rates(y_);
  announce_tx_.add(h * rr.tx_total);
  repair_tx_.add(h * rr.r_hot_tx * nonneg(y_[kHr]));
  if (p_.variant == FluidVariant::kFeedback) {
    nacks_per_receiver_.add(h * rr.nack_pkt_rate);
  }
  // A cold announcement of a record the receiver already holds fresh is
  // redundant bandwidth (the paper's W metric).
  const double n = nonneg(y_[kN]);
  const double f = nonneg(y_[kF]);
  if (n > kTiny) redundant_tx_.add(h * rr.cold_flux * (f / n));
}

void FluidIntegrator::advance(double t) {
  while (t_ + dt_ <= t + kTiny) {
    step(dt_);
    t_ += dt_;
  }
  const double rem = t - t_;
  if (rem > 1e-9) {
    step(rem);
    t_ = t;
  }
}

double FluidIntegrator::consistency() const {
  const double n = y_[kN];
  if (n <= kTiny) return 1.0;  // vacuous-empty convention
  return std::clamp(y_[kF] / n, 0.0, 1.0);
}

FluidOccupancy FluidIntegrator::occupancy() const {
  FluidOccupancy occ;
  const double n = y_[kN];
  if (n <= kTiny) {
    occ.fresh = 1.0;
    return occ;
  }
  double ic = y_[kIh];
  for (int j = 0; j < p_.cold_stages; ++j) ic += y_[kIc0 + j];
  occ.fresh = y_[kF] / n;
  occ.stale = y_[kS] / n;
  occ.inconsistent = ic / n;
  occ.recovering = (y_[kRqd] + y_[kRqr] + y_[kRt]) / n;
  return occ;
}

double FluidIntegrator::live() const { return y_[kN]; }
double FluidIntegrator::hot_backlog() const { return y_[kIh] + y_[kHr]; }
double FluidIntegrator::repair_backlog() const { return y_[kHr]; }

double FluidIntegrator::consistency_integral() const {
  return c_integral_.value();
}

double FluidIntegrator::average_consistency() const {
  const double span = t_ - stats_since_;
  if (span <= 0.0) return consistency();
  return c_integral_.value() / span;
}

FluidOccupancy FluidIntegrator::average_occupancy() const {
  const double span = t_ - stats_since_;
  if (span <= 0.0) return occupancy();
  FluidOccupancy occ;
  occ.fresh = occ_integral_[0].value() / span;
  occ.stale = occ_integral_[1].value() / span;
  occ.inconsistent = occ_integral_[2].value() / span;
  occ.recovering = occ_integral_[3].value() / span;
  return occ;
}

double FluidIntegrator::repair_traffic() const {
  return repair_tx_.value() + p_.cohort * nacks_per_receiver_.value();
}

void FluidIntegrator::reset_stats() {
  c_integral_.reset();
  for (auto& acc : occ_integral_) acc.reset();
  announce_tx_.reset();
  repair_tx_.reset();
  nacks_per_receiver_.reset();
  redundant_tx_.reset();
  stats_since_ = t_;
}

FluidResult solve_fluid(const FluidParams& params) {
  FluidIntegrator fluid(params);
  fluid.advance(params.warmup);
  fluid.reset_stats();

  FluidResult r;
  const double end = params.warmup + params.duration;
  if (params.sample_interval > 0.0) {
    double prev_t = fluid.now();
    double prev_i = fluid.consistency_integral();
    for (double t = params.warmup + params.sample_interval; t < end + kTiny;
         t += params.sample_interval) {
      fluid.advance(std::min(t, end));
      const double span = fluid.now() - prev_t;
      const double integral = fluid.consistency_integral();
      if (span > 0.0) {
        r.timeline.push_back({fluid.now(), (integral - prev_i) / span});
      }
      prev_t = fluid.now();
      prev_i = integral;
    }
  }
  fluid.advance(end);

  r.avg_consistency = fluid.average_consistency();
  r.occupancy = fluid.occupancy();
  r.avg_occupancy = fluid.average_occupancy();
  r.live = fluid.live();
  r.hot_backlog = fluid.hot_backlog();
  r.repair_backlog = fluid.repair_backlog();
  r.announce_tx = fluid.announce_tx();
  r.repair_tx = fluid.repair_tx();
  r.nacks_per_receiver = fluid.nacks_per_receiver();
  r.redundant_tx = fluid.redundant_tx();
  return r;
}

double open_loop_fluid_fixed_point(double lambda, double mu, double p_loss,
                                   double p_death) {
  const double recover = mu * (1.0 - p_death) * (1.0 - p_loss);
  if (lambda + recover <= 0.0) return 1.0;
  return recover / (lambda + recover);
}

double open_loop_lifetime_fixed_point(double announce_rate, double p_loss,
                                      double mean_lifetime) {
  const double refresh = announce_rate * (1.0 - p_loss);
  const double churn = 1.0 / std::max(mean_lifetime, kTiny);
  if (refresh + churn <= 0.0) return 1.0;
  return refresh / (refresh + churn);
}

}  // namespace sst::analysis

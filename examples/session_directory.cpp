// session_directory — an sdr/SAP-style multicast session directory.
//
// The paper's motivating application: "it has been successfully used in the
// multicast-based session directory tools to disseminate MBone conference
// information to large groups." Conference announcements are soft state:
// each has a lifetime (the conference duration), directories listen to the
// announcement channel, late joiners catch up from periodic refreshes, and
// entries expire when announcements cease — no teardown protocol exists.
//
// This example uses the CORE announce/listen machinery (open-loop sender,
// receiver table with expiry timers) rather than SSTP, to show the
// lower-level API, and demonstrates:
//   * late join: a directory that tunes in mid-session converges,
//   * soft teardown: a crashed announcer's session simply expires,
//   * robustness: everything runs over a 15%-lossy channel.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/open_loop.hpp"
#include "core/table.hpp"
#include "core/workload.hpp"
#include "net/channel.hpp"
#include "net/delay.hpp"
#include "net/loss.hpp"
#include "sim/simulator.hpp"

using namespace sst;
using namespace sst::core;

namespace {

std::vector<std::uint8_t> text(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

std::string name_of(const Record& rec) {
  return std::string(rec.value.begin(), rec.value.end());
}

}  // namespace

int main() {
  sim::Simulator sim;

  // The announcer's directory of live conferences.
  PublisherTable directory;
  std::map<Key, std::string> names;  // key -> session name (for printing)
  directory.subscribe([&](const Record& rec, ChangeKind kind) {
    if (kind == ChangeKind::kInsert) names[rec.key] = name_of(rec);
    if (kind == ChangeKind::kRemove) {
      std::printf("t=%6.1fs  [announcer] conference '%s' ended\n", sim.now(),
                  names[rec.key].c_str());
    }
  });

  WorkloadParams wp;  // manual workload: we insert sessions ourselves
  wp.insert_rate = 0.0;
  wp.death_mode = DeathMode::kPerTransmission;
  wp.p_death = 0.0;
  sim::Rng workload_rng(1);  // named streams: every seed is auditable here
  Workload workload(sim, directory, wp, workload_rng);

  // The SAP announcement channel: 16 kbps of directory bandwidth, 15% loss,
  // two listening directories — one present from the start, one late joiner.
  net::Channel<DataMsg> channel(sim);
  auto early = std::make_unique<ReceiverTable>(sim, /*ttl=*/45.0);
  auto late = std::make_unique<ReceiverTable>(sim, /*ttl=*/45.0);

  sim::Rng early_loss_rng(2);
  channel.add_receiver(
      std::make_unique<net::BernoulliLoss>(0.15, early_loss_rng),
      std::make_unique<net::FixedDelay>(0.05),
      [&](const DataMsg& m) { early->refresh(m.key, m.version); });

  // The late joiner's handler starts deaf and tunes in at t=300.
  bool late_tuned_in = false;
  sim::Rng late_loss_rng(3);
  channel.add_receiver(
      std::make_unique<net::BernoulliLoss>(0.15, late_loss_rng),
      std::make_unique<net::FixedDelay>(0.05), [&](const DataMsg& m) {
        if (late_tuned_in) late->refresh(m.key, m.version);
      });

  early->on_refresh([&](Key k, Version, bool was_new, bool) {
    if (was_new) {
      std::printf("t=%6.1fs  [early dir] learned of '%s'\n", sim.now(),
                  names[k].c_str());
    }
  });
  early->on_expire([&](Key k, Version) {
    std::printf("t=%6.1fs  [early dir] '%s' timed out of the directory\n",
                sim.now(), names[k].c_str());
  });
  late->on_refresh([&](Key k, Version, bool was_new, bool) {
    if (was_new) {
      std::printf("t=%6.1fs  [late dir ] caught up with '%s'\n", sim.now(),
                  names[k].c_str());
    }
  });

  OpenLoopSender announcer(sim, directory, workload, sim::kbps(16),
                           [&](const DataMsg& m) { channel.send(m, m.size); });

  // --- the session schedule -------------------------------------------------
  std::printf("--- announcing three conferences (SAP-style, 16 kbps, 15%% "
              "loss)\n");
  const Key lecture = directory.insert(text("CS268 lecture"), 400);
  const Key concert = directory.insert(text("net-radio concert"), 400);
  // Scheduled lambdas capture pointers by value: main()'s locals do outlive
  // the run here, but events must never hold by-reference captures into a
  // stack frame (tools/sstlint.py ref-capture contract).
  sim.at(120.0, [dir = &directory] {
    const Key bof = dir->insert(text("IETF BOF"), 400);
    (void)bof;
  });

  // Late joiner tunes in mid-session.
  sim.at(300.0, [tuned = &late_tuned_in, simp = &sim] {
    *tuned = true;
    std::printf("t=%6.1fs  [late dir ] tuned into the announcement channel\n",
                simp->now());
  });

  // The concert ends normally at t=500 (announcer withdraws it).
  sim.at(500.0, [dir = &directory, concert] { dir->remove(concert); });

  // The lecture's announcer CRASHES at t=650 — no teardown is ever sent.
  // Soft state handles it: both directories expire the entry ~45 s later.
  sim.at(650.0, [dir = &directory, namesp = &names, simp = &sim, lecture] {
    std::printf("t=%6.1fs  [announcer] crash! '%s' stops being refreshed "
                "(no teardown message)\n",
                simp->now(), (*namesp)[lecture].c_str());
    dir->remove(lecture);  // the crash, from the channel's viewpoint
  });

  sim.run_until(900.0);

  std::printf("\nfinal directory sizes: announcer=%zu early=%zu late=%zu "
              "(IETF BOF remains live)\n",
              directory.live_count(), early->size(), late->size());
  std::printf("announcements sent: %llu\n",
              static_cast<unsigned long long>(announcer.stats().data_tx));
  return 0;
}

// End-to-end benchmark for the agile coprocessor simulator.
//
//   perfbench --workload <tls_mix|reconfig_churn|field_update>
//             --seed <n> --seconds <s> --trace <0|1>
//
// One run repeats whole ROUNDS of one workload until `--seconds` of host
// time have passed.  A round builds a fresh fleet from nothing: it makes
// the traffic and the request inputs from the seed, synthesizes the
// bitstreams, provisions every card, computes every request's expected
// output digest with the kernel's golden software, serves the traffic and
// checks every completion.  Simulated time is deterministic for a seed, so
// every round must reproduce the first one's simulated figures exactly;
// host-time figures are medians over the rounds.
//
// The program is driven only through its public API (CoprocessorFleet,
// workload::make_*, algorithms::catalog, the ServerRequest each completion
// hook receives, FleetStats).  Host-time spans are recorded here, around
// the calls into each module, never inside the program.
//
// Standard output: one `sample <kernel> <input-hex> <output-hex>` line per
// sampled request (run.py cross-checks them against Python's stdlib), then
// one JSON line {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/kernels.h"
#include "bitstream/synth.h"
#include "common/crc32.h"
#include "common/prng.h"
#include "compress/codec.h"
#include "core/fleet.h"
#include "workload/multiclient.h"

namespace {

using namespace aad;
using algorithms::KernelId;
using sim::SimTime;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Host-time spans of one round, in milliseconds, keyed by metric name.
class Spans {
 public:
  template <typename F>
  decltype(auto) time(const std::string& name, F&& body) {
    const auto start = Clock::now();
    struct Stop {
      Spans& spans;
      const std::string& name;
      Clock::time_point start;
      ~Stop() { spans.ms_[name] += seconds_since(start) * 1e3; }
    } stop{*this, name, start};
    return body();
  }
  void add(const std::string& name, double ms) { ms_[name] += ms; }
  double get(const std::string& name) const {
    const auto it = ms_.find(name);
    return it == ms_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::string, double> ms_;
};

std::uint64_t fnv1a(ByteSpan bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const Byte b : bytes) h = (h ^ b) * 0x100000001b3ull;
  return h;
}

std::string hex(ByteSpan bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const Byte b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 15]);
  }
  return out;
}

// --- workload plans ----------------------------------------------------------

/// One request of a workload, made in full before the first submission.
struct Request {
  std::uint32_t function = 0;
  KernelId kernel{};  ///< golden software and input shape of `function`
  /// Open loop: arrival after the phase starts.  Closed loop: think time
  /// after the client's previous completion.
  SimTime offset;
  Bytes input;
  std::size_t index = 0;  ///< dense over the whole round
};

/// A bitstream and the function id it is downloaded under.
struct Image {
  std::uint32_t function = 0;
  bitstream::Bitstream bitstream;
};

/// A serving phase: the images downloaded to every card before it, then
/// its traffic, run to completion.
struct Phase {
  std::vector<Image> updates;
  workload::ArrivalMode mode = workload::ArrivalMode::kOpenLoop;
  std::vector<std::vector<Request>> clients;
};

struct Plan {
  core::FleetConfig fleet;
  std::vector<Image> provision;  ///< downloaded to every card at set-up
  std::vector<Phase> phases;
  std::size_t requests = 0;
};

/// Download the catalog kernels' own bitstreams at set-up.
void provision_catalog(Plan& plan, std::span<const KernelId> kernels) {
  for (const KernelId k : kernels)
    plan.provision.push_back(
        {algorithms::function_id(k),
         algorithms::spec(k).make_bitstream(plan.fleet.card.fabric.geometry)});
}

/// Payload size in make_input blocks, drawn per request: bulk records of
/// 128 to 384 bytes for the ciphers and hashes and one 256-bit operand set
/// for modexp, else 1 to 4 of the catalog's smallest units.
std::size_t payload_blocks(KernelId kernel, bool bulk, Prng& rng) {
  auto between = [&rng](std::size_t lo, std::size_t hi) {
    return lo + rng.next_below(hi - lo + 1);
  };
  if (!bulk) return between(1, 4);
  switch (kernel) {
    case KernelId::kAes128: return between(8, 24);  // 16-byte blocks
    case KernelId::kSha256:
    case KernelId::kSha1:
    case KernelId::kMd5: return between(2, 6);      // 64-byte blocks
    default: return 1;
  }
}

KernelId as_kernel(std::uint32_t function) {
  return static_cast<KernelId>(function);
}

/// Make every request of `trace` in full, as one phase.  `kernel_of` maps
/// a trace function id to the kernel that runs it; inputs come from a
/// seed stream of their own.
void add_phase(Plan& plan, Phase phase, const workload::MultiClientTrace& trace,
               std::uint64_t seed, bool bulk,
               KernelId (*kernel_of)(std::uint32_t) = as_kernel) {
  Prng inputs(seed ^ 0x5EEDF00Dull);
  phase.mode = trace.mode;
  for (const workload::ClientTrace& ct : trace.clients) {
    std::vector<Request> requests;
    requests.reserve(ct.requests.size());
    for (const workload::ClientRequest& cr : ct.requests) {
      Request r;
      r.function = cr.function;
      r.kernel = kernel_of(cr.function);
      r.offset = cr.offset;
      const std::size_t blocks = payload_blocks(r.kernel, bulk, inputs);
      r.input = algorithms::spec(r.kernel).make_input(blocks, inputs.next());
      r.index = plan.requests++;
      requests.push_back(std::move(r));
    }
    phase.clients.push_back(std::move(requests));
  }
  plan.phases.push_back(std::move(phase));
}

/// One request for every provisioned function, all at once: the cards
/// start the measured traffic warm, with each function resident somewhere.
void add_warm_up(Plan& plan, std::uint64_t seed, bool bulk,
                 KernelId (*kernel_of)(std::uint32_t) = as_kernel) {
  workload::MultiClientTrace trace;
  trace.mode = workload::ArrivalMode::kOpenLoop;
  trace.clients.resize(1);
  for (const Image& image : plan.provision)
    trace.clients[0].requests.push_back({image.function, 1, SimTime::zero()});
  add_phase(plan, {}, trace, ~seed, bulk, kernel_of);
}

/// Open-loop arrivals conditioned on the span: each client's Poisson
/// arrivals are rescaled so its last one lands at `span`.  That is a
/// Poisson process given its count in [0, span]; the makespan, and so the
/// simulated throughput, no longer wanders with the sum of the gaps.
void condition_span(workload::MultiClientTrace& trace, SimTime span) {
  for (workload::ClientTrace& ct : trace.clients) {
    if (ct.requests.empty()) continue;
    const double scale =
        static_cast<double>(span.picoseconds()) /
        static_cast<double>(ct.requests.back().offset.picoseconds());
    for (workload::ClientRequest& cr : ct.requests)
      cr.offset = SimTime::ps(static_cast<std::int64_t>(
          static_cast<double>(cr.offset.picoseconds()) * scale));
  }
}

/// An open-loop trace over `functions`: Zipf(1) popularity in bank order,
/// `per_client` requests per client arriving `gap` apart on average.
workload::MultiClientTrace open_loop(std::vector<std::uint32_t> functions,
                                     unsigned clients, std::size_t per_client,
                                     SimTime gap, std::uint64_t seed) {
  workload::MultiClientConfig mc;
  mc.clients = clients;
  mc.requests_per_client = per_client;
  mc.functions = std::move(functions);
  mc.seed = seed;
  mc.mode = workload::ArrivalMode::kOpenLoop;
  mc.zipf_s = 1.0;
  mc.mean_interarrival = gap;
  workload::MultiClientTrace trace = workload::make_multi_client(mc);
  condition_span(trace, gap * static_cast<std::int64_t>(per_client));
  return trace;
}

// tls_mix: open-loop crypto offload on a 2-card residency-affinity fleet.
// Zipf-skewed bulk AES-128 / SHA-256 / SHA-1 / MD5, and in every run of 25
// requests of a client exactly one 256-bit modexp at a seeded position, so
// the dearest reference kernel's share of host time does not move with
// the seed.
constexpr KernelId kTlsBulk[] = {KernelId::kAes128, KernelId::kSha256,
                                 KernelId::kSha1, KernelId::kMd5};
constexpr unsigned kTlsClients = 4;
constexpr std::size_t kTlsRequestsPerClient = 500;
constexpr std::size_t kTlsModexpEvery = 25;
constexpr SimTime kTlsGap = SimTime::us(240);

Plan plan_tls_mix(std::uint64_t seed, Spans& spans) {
  Plan plan;  // FleetConfig defaults: 2 cards, residency affinity
  spans.time("bitstream.synth_ms", [&] {
    provision_catalog(plan, kTlsBulk);
    provision_catalog(plan, std::array{KernelId::kModExp});
  });
  spans.time("workload.generate_ms", [&] {
    std::vector<std::uint32_t> bank;
    for (const KernelId k : kTlsBulk) bank.push_back(algorithms::function_id(k));
    workload::MultiClientTrace trace = open_loop(
        std::move(bank), kTlsClients, kTlsRequestsPerClient, kTlsGap, seed);
    Prng positions(seed ^ 0x0DD5EEDull);
    for (workload::ClientTrace& ct : trace.clients)
      for (std::size_t run = 0; run + kTlsModexpEvery <= ct.requests.size();
           run += kTlsModexpEvery)
        ct.requests[run + positions.next_below(kTlsModexpEvery)].function =
            algorithms::function_id(KernelId::kModExp);
    add_warm_up(plan, seed, /*bulk=*/true);
    add_phase(plan, {}, trace, seed, /*bulk=*/true);
  });
  return plan;
}

// reconfig_churn: 8 closed-loop clients with no think time saturate one
// card, drawing uniformly from the 17 non-modexp kernels (~106 frames
// against the card's 48), so most requests reconfigure.
constexpr unsigned kChurnClients = 8;
constexpr std::size_t kChurnRequestsPerClient = 3000;

Plan plan_reconfig_churn(std::uint64_t seed, Spans& spans) {
  Plan plan;
  plan.fleet.cards = 1;
  std::vector<KernelId> kernels;
  for (const algorithms::KernelSpec& s : algorithms::catalog())
    if (s.id != KernelId::kModExp) kernels.push_back(s.id);
  spans.time("bitstream.synth_ms", [&] { provision_catalog(plan, kernels); });
  spans.time("workload.generate_ms", [&] {
    workload::MultiClientConfig mc;
    mc.clients = kChurnClients;
    mc.requests_per_client = kChurnRequestsPerClient;
    for (const KernelId k : kernels) mc.functions.push_back(algorithms::function_id(k));
    mc.seed = seed;
    mc.mode = workload::ArrivalMode::kClosedLoop;
    add_phase(plan, {}, workload::make_multi_client(mc), seed, /*bulk=*/false);
  });
  return plan;
}

// field_update: the paper's "changing standards" case.  A 4-card affinity
// fleet with delta reconfiguration serves open-loop traffic in short
// phases.  Before each phase after the first, a new version of each of two
// 12-frame functions (2 dirty frames per step) is downloaded to every
// card, and the phase's traffic moves to it.
constexpr unsigned kFieldCards = 4;
constexpr unsigned kFieldClients = 4;
constexpr std::size_t kFieldPhases = 96;
constexpr std::size_t kFieldRequestsPerClient = 16;  // per phase
constexpr SimTime kFieldGap = SimTime::us(40);
constexpr unsigned kChainFrames = 12;
constexpr unsigned kDirtyFrames = 2;
constexpr std::uint32_t kChainBase = 1000;
constexpr KernelId kChainKernels[] = {KernelId::kXtea, KernelId::kFir16};
constexpr KernelId kFieldCatalog[] = {KernelId::kAes128, KernelId::kSha256,
                                      KernelId::kMd5,    KernelId::kDes,
                                      KernelId::kCrc32,  KernelId::kAdder32};

std::uint32_t chain_function(std::size_t chain, std::size_t version) {
  return kChainBase + static_cast<std::uint32_t>(chain * 1000 + version);
}

KernelId field_kernel(std::uint32_t function) {
  return function >= kChainBase
             ? kChainKernels[(function - kChainBase) / 1000]
             : as_kernel(function);
}

Plan plan_field_update(std::uint64_t seed, Spans& spans) {
  Plan plan;
  plan.fleet.cards = kFieldCards;
  plan.fleet.card.mcu.engine.delta_reconfig = true;
  const fabric::FrameGeometry geometry = plan.fleet.card.fabric.geometry;
  // ROM records are append-only, so every version ever downloaded stays:
  // room for each, uncompressed, beside the default-sized catalog ROM.
  plan.fleet.card.mcu.rom_capacity +=
      std::size(kChainKernels) * kFieldPhases *
      (kChainFrames * geometry.frame_bytes() + memory::kRecordBytes);
  std::vector<Phase> phases(kFieldPhases);

  // Version v of a chain is version v-1 with kDirtyFrames frames spliced
  // in from a fresh synthesis of the same shape: realistic content on both
  // sides of every edit and a known dirty-frame count per step.
  spans.time("bitstream.synth_ms", [&] {
    provision_catalog(plan, kFieldCatalog);
    for (std::size_t g = 0; g < std::size(kChainKernels); ++g) {
      const algorithms::KernelSpec& spec = algorithms::spec(kChainKernels[g]);
      bitstream::SynthParams params;
      params.frames = kChainFrames;
      auto synth = [&](std::uint64_t content_seed) {
        params.seed = content_seed;
        return bitstream::synthesize_behavioral(
            spec.name, algorithms::function_id(spec.id), spec.input_width,
            spec.output_width, geometry, params);
      };
      const std::uint64_t chain_seed = seed * 7919 + g * 104729;
      bitstream::Bitstream current = synth(chain_seed);
      plan.provision.push_back({chain_function(g, 0), current});
      for (std::size_t v = 1; v < kFieldPhases; ++v) {
        const bitstream::Bitstream edit = synth(chain_seed + v);
        for (unsigned d = 0; d < kDirtyFrames; ++d) {
          const std::size_t f = ((v - 1) * kDirtyFrames + d) % kChainFrames;
          current.frames[f] = edit.frames[f];
        }
        phases[v].updates.push_back({chain_function(g, v), current});
      }
    }
  });
  spans.time("workload.generate_ms", [&] {
    add_warm_up(plan, seed, /*bulk=*/false, field_kernel);
    for (std::size_t p = 0; p < kFieldPhases; ++p) {
      // The live versions are the most popular functions.
      std::vector<std::uint32_t> bank;
      for (std::size_t g = 0; g < std::size(kChainKernels); ++g)
        bank.push_back(chain_function(g, p));
      for (const KernelId k : kFieldCatalog)
        bank.push_back(algorithms::function_id(k));
      const std::uint64_t phase_seed = seed * 131 + p;
      add_phase(plan, std::move(phases[p]),
                open_loop(std::move(bank), kFieldClients,
                          kFieldRequestsPerClient, kFieldGap, phase_seed),
                phase_seed, /*bulk=*/false, field_kernel);
    }
  });
  return plan;
}

Plan make_plan(const std::string& workload, std::uint64_t seed, Spans& spans) {
  if (workload == "tls_mix") return plan_tls_mix(seed, spans);
  if (workload == "reconfig_churn") return plan_reconfig_churn(seed, spans);
  if (workload == "field_update") return plan_field_update(seed, spans);
  throw std::invalid_argument("unknown workload: " + workload);
}

// --- one round ---------------------------------------------------------------

/// Everything a round measures.  `sim` and `layers` are simulated figures
/// and must repeat exactly from round to round.
struct RoundResult {
  double setup_s = 0.0;
  double serving_s = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> sim;     ///< simulated-time metrics
  std::map<std::string, double> layers;  ///< per-layer simulated figures
  Spans spans;
  std::vector<std::string> errors;
  std::vector<std::string> samples;
};

/// Checks each completion against its expected digest and stage budget,
/// and accumulates the simulated-time figures.  Keeps no output bytes:
/// per request, a digest, a completion count and a latency.
class Ledger {
 public:
  /// `expected` holds each request's output digest, by request index.
  explicit Ledger(const std::vector<std::uint64_t>& expected)
      : expected_(expected), done_(expected.size(), 0) {
    latencies_.reserve(expected.size());
  }

  void sample(std::size_t index, const Request& r) {
    samples_.emplace(index, algorithms::spec(r.kernel).name + " " +
                                hex(r.input));
  }

  void complete(std::size_t index, const core::ServerRequest& r) {
    if (done_[index]++ != 0) {
      error("request " + std::to_string(index) + " completed twice");
      return;
    }
    if (r.failed) {
      ++failed_;
      return;
    }
    if (fnv1a(r.output) != expected_[index])
      error("request " + std::to_string(index) + " (function " +
            std::to_string(r.function) + ") output digest mismatch");
    const SimTime stages[] = {r.pci_in_time,   r.pci_out_time, r.bus_wait,
                              r.engine_wait,   r.prepare_time, r.fabric_wait,
                              r.execute_time};
    SimTime staged;
    for (const SimTime s : stages) {
      if (s < SimTime::zero())
        error("request " + std::to_string(index) + " has a negative stage");
      staged += s;
    }
    const SimTime latency = r.latency();
    const SimTime unattributed = latency - staged;
    if (unattributed < SimTime::zero() ||
        (r.batch_size == 1 && unattributed != SimTime::zero()))
      error("request " + std::to_string(index) + ": latency minus stages is " +
            std::to_string(unattributed.picoseconds()) + " ps");
    sums_["pci.transfer_us"] += (r.pci_in_time + r.pci_out_time).picoseconds();
    sums_["pci.bus_wait_us"] += r.bus_wait.picoseconds();
    sums_["mcu.decode_us"] += r.decode_time.picoseconds();
    sums_["mcu.load_us"] += (r.prepare_time - r.decode_time).picoseconds();
    sums_["mcu.engine_wait_us"] += r.engine_wait.picoseconds();
    sums_["mcu.hidden_reconfig_us"] += r.hidden_reconfig.picoseconds();
    sums_["fabric.execute_us"] += r.execute_time.picoseconds();
    sums_["fabric.wait_us"] += r.fabric_wait.picoseconds();
    sums_["core.unattributed_us"] += unattributed.picoseconds();
    if (!r.load.hit && !r.coalesced_load) ++misses_[r.function];
    latencies_.push_back(latency.picoseconds());
    first_submit_ = std::min(first_submit_, r.submit_time);
    last_complete_ = std::max(last_complete_, r.complete_time);
    if (const auto it = samples_.find(index); it != samples_.end())
      sampled_.push_back(it->second + " " + hex(r.output));
  }

  void error(std::string message) {
    if (errors_.size() < 8) errors_.push_back(std::move(message));
    ++error_count_;
  }

  /// Completion and simulated-time figures into `out`, checked against the
  /// program's own FleetStats.
  void finish(const core::FleetStats& stats, RoundResult& out) {
    for (std::size_t i = 0; i < done_.size(); ++i)
      if (done_[i] != 1)
        error("request " + std::to_string(i) + " completed " +
              std::to_string(done_[i]) + " times");
    out.completed = latencies_.size();
    out.failed = failed_;
    if (stats.completed != out.completed || stats.failed != out.failed)
      error("FleetStats counts disagree with the completion hooks");
    if (!latencies_.empty()) {
      std::sort(latencies_.begin(), latencies_.end());
      // Nearest rank: the smallest sample with at least q of the sample
      // at or below it.
      auto rank = [this](double q) {
        const auto n = static_cast<double>(latencies_.size());
        const auto k = static_cast<std::size_t>(std::ceil(q * n));
        return SimTime::ps(latencies_[std::max<std::size_t>(k, 1) - 1]);
      };
      const SimTime p50 = rank(0.50), p99 = rank(0.99);
      const SimTime makespan = last_complete_ - first_submit_;
      if (stats.latency.p50 != p50 || stats.latency.p99 != p99 ||
          stats.makespan != makespan)
        error("FleetStats latency or makespan disagrees with the hooks");
      out.sim["sim_latency_p50_us"] = p50.microseconds();
      out.sim["sim_latency_p99_us"] = p99.microseconds();
      out.sim["sim_throughput_rps"] =
          static_cast<double>(latencies_.size()) / makespan.seconds();
      for (const auto& [name, ps] : sums_)
        out.layers[name] = static_cast<double>(ps) * 1e-6 /
                           static_cast<double>(latencies_.size());
    }
    out.samples = std::move(sampled_);
    if (error_count_ > errors_.size())
      errors_.push_back(std::to_string(error_count_ - errors_.size()) +
                        " more errors");
    out.errors = std::move(errors_);
  }

  const std::map<std::uint32_t, std::uint64_t>& misses() const {
    return misses_;
  }

 private:
  const std::vector<std::uint64_t>& expected_;
  std::vector<std::uint8_t> done_;
  std::vector<std::int64_t> latencies_;
  std::map<std::string, std::int64_t> sums_;
  std::map<std::uint32_t, std::uint64_t> misses_;
  std::map<std::size_t, std::string> samples_;  ///< kernel and input
  std::vector<std::string> sampled_;  ///< kernel, input and output
  std::vector<std::string> errors_;
  std::size_t error_count_ = 0;
  std::uint64_t failed_ = 0;
  SimTime first_submit_ = SimTime::ps(INT64_MAX);
  SimTime last_complete_;
};

/// Submits a phase's traffic: open loop all at once at the arrival times,
/// closed loop one request per client, the next from its completion hook.
class Submitter {
 public:
  Submitter(core::CoprocessorFleet& fleet, Ledger& ledger)
      : fleet_(fleet), ledger_(ledger) {}

  void start(Phase& phase) {
    phase_ = &phase;
    next_.assign(phase.clients.size(), 0);
    const SimTime origin = fleet_.now();
    for (unsigned c = 0; c < phase.clients.size(); ++c) {
      if (phase.mode == workload::ArrivalMode::kOpenLoop) {
        for (Request& r : phase.clients[c]) submit(c, origin + r.offset, r);
        next_[c] = phase.clients[c].size();
      } else if (!phase.clients[c].empty()) {
        submit_next(c, origin);
      }
    }
  }

 private:
  void submit_next(unsigned client, SimTime after) {
    Request& r = phase_->clients[client][next_[client]++];
    submit(client, after + r.offset, r);
  }

  void submit(unsigned client, SimTime when, Request& r) {
    const std::size_t index = r.index;
    const bool closed = phase_->mode == workload::ArrivalMode::kClosedLoop;
    fleet_.submit_function_at(
        when, client, r.function, std::move(r.input),
        [this, index, client, closed](const core::ServerRequest& done) {
          ledger_.complete(index, done);
          if (closed && next_[client] < phase_->clients[client].size())
            submit_next(client, done.complete_time);
        });
  }

  core::CoprocessorFleet& fleet_;
  Ledger& ledger_;
  Phase* phase_ = nullptr;
  std::vector<std::size_t> next_;
};

constexpr std::size_t kSamplesPerKernel = 3;

/// One round.  `expected` is empty on the first round, which fills it;
/// every round makes the same inputs from the seed, so later rounds reuse
/// it and their time goes to serving.
RoundResult run_round(const std::string& workload, std::uint64_t seed,
                      bool traced, std::vector<std::uint64_t>& expected) {
  RoundResult out;
  Spans& spans = out.spans;
  const auto setup_start = Clock::now();
  Plan plan = make_plan(workload, seed, spans);
  auto fleet = spans.time("core.provision_ms", [&] {
    auto f = std::make_unique<core::CoprocessorFleet>(plan.fleet);
    for (const Image& image : plan.provision)
      f->download_bitstream(image.function, image.bitstream);
    return f;
  });
  out.setup_s = seconds_since(setup_start);

  // Expected digests from the golden software, apart from the card.
  if (expected.empty())
    spans.time("algorithms.kernel_ms", [&] {
      expected.resize(plan.requests);
      for (const Phase& phase : plan.phases)
        for (const auto& client : phase.clients)
          for (const Request& r : client)
            expected[r.index] =
                fnv1a(algorithms::spec(r.kernel).software(r.input));
    });
  if (expected.size() != plan.requests)
    throw std::logic_error("one seed made different rounds");
  Ledger ledger(expected);
  std::map<KernelId, std::size_t> sampled;
  for (const Phase& phase : plan.phases)
    for (const auto& client : phase.clients)
      for (const Request& r : client)
        if (sampled[r.kernel]++ < kSamplesPerKernel) ledger.sample(r.index, r);

  // Serving: downloads, submission, run() and the final stats().
  Submitter submitter(*fleet, ledger);
  std::uint64_t events = 0;
  const auto serving_start = Clock::now();
  for (Phase& phase : plan.phases) {
    spans.time("core.download_ms", [&] {
      for (const Image& image : phase.updates)
        fleet->download_bitstream(image.function, image.bitstream);
    });
    spans.time("core.submit_ms", [&] { submitter.start(phase); });
    events += spans.time("core.run_ms", [&] { return fleet->run(); });
  }
  const core::FleetStats stats =
      spans.time("core.stats_ms", [&] { return fleet->stats(); });
  out.serving_s = seconds_since(serving_start);

  ledger.finish(stats, out);

  std::map<std::string, double>& l = out.layers;
  l["sim.events"] = static_cast<double>(events);
  l["mcu.config_misses"] = static_cast<double>(stats.config_misses);
  l["mcu.hit_ratio"] = stats.hit_rate;
  l["mcu.bytes_streamed"] = static_cast<double>(stats.bytes_streamed);
  l["mcu.frames_skipped_delta"] =
      static_cast<double>(stats.frames_skipped_delta);
  l["core.affinity_routed"] = static_cast<double>(stats.affinity_routed);
  l["core.delta_routed"] = static_cast<double>(stats.delta_routed);
  l["core.affinity_fallback"] = static_cast<double>(stats.affinity_fallback);
  double evictions = 0, frames = 0;
  for (unsigned c = 0; c < fleet->card_count(); ++c) {
    const mcu::McuStats device = fleet->card(c).mcu().stats();
    evictions += static_cast<double>(device.evictions);
    frames += static_cast<double>(device.frames_configured);
  }
  l["mcu.evictions"] = evictions;
  l["mcu.frames_configured"] = frames;

  if (traced) {
    // The configuration engine decodes and CRC-checks a stored image on
    // every miss.  Time one decode and one CRC-32 of each image the round
    // missed on, and weight them by its misses.
    const fabric::FrameGeometry geometry = plan.fleet.card.fabric.geometry;
    const memory::RomImage& rom = fleet->card(0).mcu().rom();
    for (const auto& [function, misses] : ledger.misses()) {
      const std::optional<memory::RomRecord> record = rom.lookup(function);
      if (!record) continue;
      const auto codec = compress::make_codec(record->codec,
                                              geometry.frame_bytes());
      const ByteSpan payload = rom.payload(*record);
      const auto start = Clock::now();
      const Bytes raw = codec->decompress(payload);
      const double decode_ms = seconds_since(start) * 1e3;
      const auto crc_start = Clock::now();
      volatile std::uint32_t crc = Crc32::compute(raw);
      (void)crc;
      const double crc_ms = seconds_since(crc_start) * 1e3;
      spans.add("compress.decode_ms", decode_ms * static_cast<double>(misses));
      spans.add("common.crc32_ms", crc_ms * static_cast<double>(misses));
    }
  }
  return out;
}

// --- the run -----------------------------------------------------------------

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Peak resident set of this process, in MiB.  getrusage's ru_maxrss
/// carries over across exec, so under a launcher it reads at least the
/// launcher's own peak; the kernel's VmHWM of the current address space
/// does not, and is preferred where it exists.
double peak_rss_mb() {
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, status))
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    std::fclose(status);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"sim_throughput_rps", "req/s"}, {"sim_latency_p50_us", "us"},
    {"sim_latency_p99_us", "us"},    {"host_requests_per_s", "req/s"},
    {"setup_s", "s"},                {"peak_rss_mb", "MB"}};

constexpr Metric kPerLayer[] = {
    {"pci.transfer_us", "us"},       {"pci.bus_wait_us", "us"},
    {"mcu.decode_us", "us"},         {"mcu.load_us", "us"},
    {"mcu.engine_wait_us", "us"},    {"mcu.hidden_reconfig_us", "us"},
    {"mcu.config_misses", "count"},  {"mcu.evictions", "count"},
    {"mcu.frames_configured", "count"}, {"mcu.bytes_streamed", "bytes"},
    {"mcu.hit_ratio", "ratio"},      {"mcu.frames_skipped_delta", "count"},
    {"fabric.execute_us", "us"},     {"fabric.wait_us", "us"},
    {"core.affinity_routed", "count"}, {"core.delta_routed", "count"},
    {"core.affinity_fallback", "count"}, {"core.unattributed_us", "us"},
    {"sim.events", "count"},         {"sim.host_ns_per_event", "ns"},
    {"workload.generate_ms", "ms"},  {"bitstream.synth_ms", "ms"},
    {"core.provision_ms", "ms"},     {"core.submit_ms", "ms"},
    {"core.run_ms", "ms"},           {"core.stats_ms", "ms"},
    {"core.download_ms", "ms"},      {"algorithms.kernel_ms", "ms"},
    {"compress.decode_ms", "ms"},    {"common.crc32_ms", "ms"}};

int run(const std::string& workload, std::uint64_t seed, double seconds,
        bool traced) {
  // The catalog is built once per process on first use (it maps every
  // netlist kernel to measure its footprint).  A single sample per process
  // is too noisy to bound, so it is built before timing and left out of
  // setup_s; stderr reports it.
  const auto catalog_start = Clock::now();
  (void)algorithms::catalog();
  const double catalog_s = seconds_since(catalog_start);

  // Whole rounds, at least three, until the run's time is spent.
  std::vector<RoundResult> rounds;
  std::vector<std::uint64_t> expected;
  const auto run_start = Clock::now();
  do {
    rounds.push_back(run_round(workload, seed, traced, expected));
  } while (rounds.size() < 3 || seconds_since(run_start) < seconds);

  const RoundResult& first = rounds.front();
  // Only the first round runs the golden software.
  const double kernel_ms = first.spans.get("algorithms.kernel_ms");
  std::vector<std::string> errors;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> setup, rate, per_event;
  std::map<std::string, std::vector<double>> span_ms;
  for (const RoundResult& r : rounds) {
    attempted += r.completed + r.failed;
    failed += r.failed;
    if (r.sim != first.sim || r.layers != first.layers)
      errors.push_back("simulated figures differ between rounds");
    for (const std::string& e : r.errors)
      if (std::find(errors.begin(), errors.end(), e) == errors.end())
        errors.push_back(e);
    setup.push_back(r.setup_s);
    rate.push_back(static_cast<double>(r.completed) / r.serving_s);
    for (const Metric& m : kPerLayer)
      if (std::string(m.unit) == "ms")
        span_ms[m.name].push_back(r.spans.get(m.name));
    per_event.push_back((r.spans.get("core.run_ms") - kernel_ms) * 1e6 /
                        first.layers.at("sim.events"));
  }

  std::map<std::string, double> values = first.sim;
  values["host_requests_per_s"] = median(rate);
  values["setup_s"] = median(setup);
  values["peak_rss_mb"] = peak_rss_mb();
  for (const auto& [name, v] : first.layers) values[name] = v;
  for (const auto& [name, v] : span_ms) values[name] = median(v);
  values["algorithms.kernel_ms"] = kernel_ms;
  values["sim.host_ns_per_event"] = median(per_event);

  for (const std::string& s : first.samples) std::printf("sample %s\n", s.c_str());
  for (const std::string& e : errors)
    std::fprintf(stderr, "perfbench: %s: %s\n", workload.c_str(), e.c_str());
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu rounds, %.0f..%.0f req/s "
               "(median %.0f), setup %.4f s median (+%.4f s catalog)\n",
               workload.c_str(), static_cast<unsigned long long>(seed),
               rounds.size(), *std::min_element(rate.begin(), rate.end()),
               *std::max_element(rate.begin(), rate.end()),
               values["host_requests_per_s"], median(setup), catalog_s);

  std::string metrics;
  for (const Metric& m : traced ? std::span<const Metric>(kPerLayer)
                                : std::span<const Metric>(kEndToEnd)) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", values.at(m.name));
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + m.name + "\": {\"value\": " + value +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      errors.empty() ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  const char* usage =
      "usage: perfbench --workload <tls_mix|reconfig_churn|field_update> "
      "--seed <n> --seconds <s> --trace <0|1>\n";
  if (argc % 2 != 1 || args.size() != 4 || !args.contains("--workload") ||
      !args.contains("--seed") || !args.contains("--seconds") ||
      (args["--trace"] != "0" && args["--trace"] != "1")) {
    std::fputs(usage, stderr);
    return 2;
  }
  try {
    return run(args["--workload"], std::stoull(args["--seed"]),
               std::stod(args["--seconds"]), args["--trace"] == "1");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

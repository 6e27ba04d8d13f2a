// Tests for the resilience layer (src/resilience + the recovery machinery
// in the executor, mailbox and Cholesky drivers):
//
//   * seeded fault injection is schedule-invariant and exactly accounted
//     (injected == retries == recovered);
//   * a faulted factorization's factor is bitwise identical to a
//     fault-free run's — the acceptance criterion of the resilience PR;
//   * unrecoverable errors drain the pool promptly (fail-fast);
//   * the watchdog converts executor stalls and mailbox deadlocks into
//     descriptive errors instead of hangs;
//   * numerical breakdown surfaces the global pivot, and the
//     shift-and-restart policy completes near-non-SPD factorizations;
//   * rank overflow past maxrank falls back to dense storage.
//
// The fault-seeds CI sweep re-runs this binary with PTLR_FAULTS set; the
// seeded sweep tests honour the environment config when present.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/checkpoint.hpp"
#include "core/cholesky.hpp"
#include "core/dist_cholesky.hpp"
#include "dense/util.hpp"
#include "hcore/kernels.hpp"
#include "resilience/fault.hpp"
#include "resilience/stats.hpp"
#include "resilience/watchdog.hpp"
#include "runtime/distribution.hpp"
#include "runtime/executor.hpp"
#include "runtime/mailbox.hpp"
#include "tlr/io.hpp"

using namespace ptlr;
using resil::FaultConfig;
using resil::ResilienceEvent;

namespace {

// RAII environment override restoring the previous value on destruction.
// nullptr unsets the variable.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    if (value != nullptr)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~ScopedEnv() {
    if (had_old_)
      ::setenv(name_.c_str(), old_.c_str(), 1);
    else
      ::unsetenv(name_.c_str());
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  bool had_old_ = false;
  std::string old_;
};

// Recovery events attributable to one call.
resil::RecoveryStats events_of(const std::function<void()>& fn) {
  const resil::RecoveryStats before = resil::snapshot();
  fn();
  return resil::diff(before, resil::snapshot());
}

// ------------------------------------------------------------ injector ----

TEST(FaultConfig, DefaultAndEmptyAreDisabled) {
  EXPECT_FALSE(FaultConfig{}.enabled);
  EXPECT_FALSE(FaultConfig::parse(nullptr).enabled);
  EXPECT_FALSE(FaultConfig::parse("").enabled);
}

TEST(FaultConfig, BareIntegerIsSeedWithDefaults) {
  const FaultConfig c = FaultConfig::parse("42");
  EXPECT_TRUE(c.enabled);
  EXPECT_EQ(c.seed, 42u);
  EXPECT_DOUBLE_EQ(c.task_exception_probability,
                   FaultConfig{}.task_exception_probability);
}

TEST(FaultConfig, KeyValueListOverridesFields) {
  const FaultConfig c =
      FaultConfig::parse("seed=7,task=0.5,alloc=0,poison=0.25,drop=1,dup=0");
  EXPECT_TRUE(c.enabled);
  EXPECT_EQ(c.seed, 7u);
  EXPECT_DOUBLE_EQ(c.task_exception_probability, 0.5);
  EXPECT_DOUBLE_EQ(c.alloc_failure_probability, 0.0);
  EXPECT_DOUBLE_EQ(c.poison_probability, 0.25);
  EXPECT_DOUBLE_EQ(c.message_drop_probability, 1.0);
  EXPECT_DOUBLE_EQ(c.message_duplicate_probability, 0.0);
}

TEST(FaultConfig, UnknownKeyThrows) {
  EXPECT_THROW(FaultConfig::parse("seed=1,tusk=0.5"), ptlr::Error);
  EXPECT_THROW(FaultConfig::parse("nonsense"), ptlr::Error);
}

TEST(FaultConfig, BadProbabilityThrows) {
  EXPECT_THROW(FaultConfig::parse("task=1.5"), ptlr::Error);
  EXPECT_THROW(FaultConfig::parse("task=-0.1"), ptlr::Error);
  EXPECT_THROW(FaultConfig::parse("task=lots"), ptlr::Error);
}

TEST(FaultConfig, FromEnvReadsPtlrFaults) {
  ScopedEnv env("PTLR_FAULTS", "seed=11,task=0.125");
  const FaultConfig c = FaultConfig::from_env();
  EXPECT_TRUE(c.enabled);
  EXPECT_EQ(c.seed, 11u);
  EXPECT_DOUBLE_EQ(c.task_exception_probability, 0.125);
}

TEST(FaultInjector, DecisionsAreScheduleInvariantPureHashes) {
  const resil::FaultInjector a(FaultConfig::with_seed(3));
  const resil::FaultInjector b(FaultConfig::with_seed(3));
  const resil::FaultInjector c(FaultConfig::with_seed(4));
  int differs = 0;
  for (std::uint64_t t = 0; t < 256; ++t) {
    // Same seed → identical decision at every site, in any query order.
    EXPECT_EQ(a.task_exception(t, 0), b.task_exception(t, 0));
    EXPECT_EQ(a.alloc_failure(t, 0), b.alloc_failure(t, 0));
    EXPECT_EQ(a.poison(t, 0), b.poison(t, 0));
    EXPECT_EQ(a.drop_message(t, 0, 1), b.drop_message(t, 0, 1));
    if (a.task_exception(t, 0) != c.task_exception(t, 0)) ++differs;
    // Transient by construction: later attempts never fault.
    EXPECT_FALSE(a.task_exception(t, 1));
    EXPECT_FALSE(a.alloc_failure(t, 1));
    EXPECT_FALSE(a.poison(t, 1).has_value());
  }
  EXPECT_GT(differs, 0);  // different seeds pick different sites
}

TEST(WatchdogConfig, FromEnvParsesMilliseconds) {
  {
    ScopedEnv env("PTLR_WATCHDOG_MS", nullptr);
    EXPECT_FALSE(resil::WatchdogConfig::from_env().enabled());
  }
  {
    ScopedEnv env("PTLR_WATCHDOG_MS", "250");
    const auto c = resil::WatchdogConfig::from_env();
    EXPECT_TRUE(c.enabled());
    EXPECT_EQ(c.deadline_ms, 250);
  }
  {
    ScopedEnv env("PTLR_WATCHDOG_MS", "0");
    EXPECT_FALSE(resil::WatchdogConfig::from_env().enabled());
  }
}

// ------------------------------------------------------------- executor ----

// A graph of n independent tasks, each writing one double slot and
// declaring it as a recoverable output (snapshot / restore / finite scan /
// poison hook) — the minimal shape of a real kernel task.
struct SlotGraph {
  explicit SlotGraph(int n, double scale)
      : data(static_cast<std::size_t>(n), 0.0) {
    for (int i = 0; i < n; ++i) {
      double* slot = &data[static_cast<std::size_t>(i)];
      rt::TaskInfo t;
      t.name = "slot" + std::to_string(i);
      t.fn = [this, slot, i, scale] {
        runs.fetch_add(1, std::memory_order_relaxed);
        *slot = scale * i + 1.0;
      };
      rt::TaskOutput out;
      out.save = [slot] {
        std::vector<char> b(sizeof(double));
        std::memcpy(b.data(), slot, sizeof(double));
        return b;
      };
      out.restore = [slot](const std::vector<char>& b) {
        if (b.size() == sizeof(double))
          std::memcpy(slot, b.data(), sizeof(double));
      };
      out.finite = [slot] { return std::isfinite(*slot); };
      out.poison = [slot](std::uint64_t) {
        *slot = std::numeric_limits<double>::quiet_NaN();
        return true;
      };
      t.outputs.push_back(std::move(out));
      g.add_task(std::move(t), {},
                 {{rt::make_key(0, static_cast<std::uint32_t>(i), 0)}});
    }
  }

  [[nodiscard]] bool values_correct(double scale) const {
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (data[i] != scale * static_cast<double>(i) + 1.0) return false;
    }
    return true;
  }

  std::vector<double> data;
  std::atomic<long long> runs{0};
  rt::TaskGraph g;
};

rt::ExecOptions quiet_options() {
  rt::ExecOptions opts;
  opts.faults = FaultConfig{};              // no injection
  opts.watchdog = resil::WatchdogConfig{};  // no deadline
  return opts;
}

TEST(ExecutorRecovery, CleanRunReportsNoEvents) {
  SlotGraph sg(16, 2.0);
  const auto res = rt::execute(sg.g, 4, quiet_options());
  EXPECT_TRUE(sg.values_correct(2.0));
  EXPECT_EQ(res.recovery.total(), 0);
}

TEST(ExecutorRecovery, EveryInjectedExceptionIsRetriedOnce) {
  const int n = 48;
  SlotGraph sg(n, 2.0);
  auto opts = quiet_options();
  opts.faults = FaultConfig::with_seed(7);
  opts.faults.task_exception_probability = 1.0;
  opts.faults.alloc_failure_probability = 0.0;
  opts.faults.poison_probability = 0.0;
  opts.retry.backoff_us = 1;
  const auto res = rt::execute(sg.g, 4, opts);
  EXPECT_TRUE(sg.values_correct(2.0));
  // The exception fires before the body: each body still runs exactly once.
  EXPECT_EQ(sg.runs.load(), n);
  EXPECT_EQ(res.recovery.of(ResilienceEvent::kFaultException), n);
  EXPECT_EQ(res.recovery.retries(), n);
  EXPECT_EQ(res.recovery.tasks_recovered(), n);
}

TEST(ExecutorRecovery, AllocFailuresAreTransient) {
  const int n = 32;
  SlotGraph sg(n, 3.0);
  auto opts = quiet_options();
  opts.faults = FaultConfig::with_seed(9);
  opts.faults.task_exception_probability = 0.0;
  opts.faults.alloc_failure_probability = 1.0;
  opts.faults.poison_probability = 0.0;
  opts.retry.backoff_us = 1;
  const auto res = rt::execute(sg.g, 4, opts);
  EXPECT_TRUE(sg.values_correct(3.0));
  EXPECT_EQ(res.recovery.of(ResilienceEvent::kFaultAlloc), n);
  EXPECT_EQ(res.recovery.retries(), n);
  EXPECT_EQ(res.recovery.tasks_recovered(), n);
}

TEST(ExecutorRecovery, PoisonedOutputsAreScannedAndRerun) {
  const int n = 32;
  SlotGraph sg(n, 5.0);
  auto opts = quiet_options();
  opts.faults = FaultConfig::with_seed(1);
  opts.faults.task_exception_probability = 0.0;
  opts.faults.alloc_failure_probability = 0.0;
  opts.faults.poison_probability = 1.0;
  opts.retry.backoff_us = 1;
  const auto res = rt::execute(sg.g, 4, opts);
  EXPECT_TRUE(sg.values_correct(5.0));
  // Poison lands after the body: every body runs twice (poisoned + clean).
  EXPECT_EQ(sg.runs.load(), 2 * n);
  EXPECT_EQ(res.recovery.of(ResilienceEvent::kFaultPoison), n);
  EXPECT_EQ(res.recovery.retries(), n);
  EXPECT_EQ(res.recovery.tasks_recovered(), n);
}

TEST(ExecutorRecovery, SeedSweepAccountsExactly) {
  long long injected_total = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SlotGraph sg(64, 2.0);
    auto opts = quiet_options();
    opts.faults = FaultConfig::with_seed(seed);  // default probabilities
    opts.retry.backoff_us = 1;
    const auto res = rt::execute(sg.g, 4, opts);
    EXPECT_TRUE(sg.values_correct(2.0)) << "seed " << seed;
    // The exactness contract: every injected fault is retried exactly once
    // and every retried task recovers.
    EXPECT_EQ(res.recovery.faults_injected(), res.recovery.retries())
        << "seed " << seed;
    EXPECT_EQ(res.recovery.retries(), res.recovery.tasks_recovered())
        << "seed " << seed;
    injected_total += res.recovery.faults_injected();
  }
  EXPECT_GT(injected_total, 0);
}

TEST(ExecutorRecovery, RetryBudgetExhaustionPropagates) {
  rt::TaskGraph g;
  rt::TaskInfo t;
  t.name = "always_transient";
  t.fn = [] { throw ptlr::TransientError("persistent transient"); };
  double slot = 0.0;
  rt::TaskOutput out;
  out.save = [] { return std::vector<char>{}; };
  out.restore = [](const std::vector<char>&) {};
  out.finite = [&slot] { return std::isfinite(slot); };
  t.outputs.push_back(std::move(out));
  g.add_task(std::move(t), {}, {{rt::make_key(0, 0, 0)}});

  auto opts = quiet_options();
  opts.faults = FaultConfig::with_seed(2);  // arms recovery
  opts.faults.task_exception_probability = 0.0;
  opts.faults.alloc_failure_probability = 0.0;
  opts.faults.poison_probability = 0.0;
  opts.retry.max_retries = 2;
  opts.retry.backoff_us = 1;
  const auto ev = events_of([&] {
    EXPECT_THROW(rt::execute(g, 2, opts), ptlr::TransientError);
  });
  EXPECT_EQ(ev.retries(), 2);
  EXPECT_EQ(ev.tasks_recovered(), 0);
}

TEST(ExecutorRecovery, DisabledInjectionFailsTransientsImmediately) {
  rt::TaskGraph g;
  rt::TaskInfo t;
  t.name = "transient";
  t.fn = [] { throw ptlr::TransientError("no recovery armed"); };
  g.add_task(std::move(t), {}, {});
  const auto ev = events_of([&] {
    EXPECT_THROW(rt::execute(g, 2, quiet_options()), ptlr::TransientError);
  });
  EXPECT_EQ(ev.retries(), 0);
}

TEST(ExecutorRecovery, UnrecoverableErrorDrainsPromptly) {
  // A poisoned 1000-task graph: the first task fails unrecoverably, every
  // other task would sleep. Fail-fast cancellation must skip nearly all of
  // them instead of grinding through ~1 s of sleeps.
  rt::TaskGraph g;
  std::atomic<long long> ran{0};
  {
    rt::TaskInfo t;
    t.name = "poisoned";
    t.fn = [] { throw ptlr::Error("unrecoverable"); };
    g.add_task(std::move(t), {}, {});
  }
  for (int i = 1; i < 1000; ++i) {
    rt::TaskInfo t;
    t.name = "sleeper" + std::to_string(i);
    t.fn = [&ran] {
      ran.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    };
    g.add_task(std::move(t), {}, {});
  }
  const auto start = std::chrono::steady_clock::now();
  // Chaos mode deliberately randomizes pop order, which can legitimately
  // schedule the poisoned task arbitrarily late — promptness is only a
  // contract of the deterministic schedulers, so pin perturbation off even
  // when a seed-sweep environment sets PTLR_PERTURB_SEED.
  auto opts = quiet_options();
  opts.perturb = rt::PerturbConfig{};
  EXPECT_THROW(rt::execute(g, 2, opts), ptlr::Error);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(ran.load(), 100);
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(ExecutorWatchdog, ConvertsStallIntoDescriptiveError) {
  rt::TaskGraph g;
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  {
    rt::TaskInfo t;
    t.name = "stuck_potrf";
    t.fn = [released] { released.wait(); };  // wedged until on_cancel
    g.add_task(std::move(t), {}, {{rt::make_key(0, 0, 0)}});
  }
  {
    rt::TaskInfo t;
    t.name = "starved_trsm";
    t.fn = [] {};
    g.add_task(std::move(t), {{rt::make_key(0, 0, 0)}}, {});
  }
  auto opts = quiet_options();
  opts.watchdog.deadline_ms = 100;
  // The watchdog is also the only way this graph can make progress again:
  // once it fires (and the run is already condemned), unblock the body so
  // the pool can join.
  opts.on_cancel = [&release] { release.set_value(); };

  std::string what;
  const auto ev = events_of([&] {
    try {
      rt::execute(g, 2, opts);
      FAIL() << "expected the watchdog to fire";
    } catch (const ptlr::Error& e) {
      what = e.what();
    }
  });
  EXPECT_NE(what.find("watchdog"), std::string::npos) << what;
  EXPECT_NE(what.find("stuck_potrf"), std::string::npos) << what;
  EXPECT_NE(what.find("starved_trsm"), std::string::npos) << what;
  EXPECT_EQ(ev.watchdog_fires(), 1);
}

TEST(ExecutorWatchdog, QuietWhileTasksComplete) {
  SlotGraph sg(64, 2.0);
  auto opts = quiet_options();
  opts.watchdog.deadline_ms = 2000;
  const auto res = rt::execute(sg.g, 4, opts);
  EXPECT_TRUE(sg.values_correct(2.0));
  EXPECT_EQ(res.recovery.watchdog_fires(), 0);
}

// -------------------------------------------------------------- mailbox ----

FaultConfig message_faults(std::uint64_t seed, double drop, double dup) {
  FaultConfig c = FaultConfig::with_seed(seed);
  c.task_exception_probability = 0.0;
  c.alloc_failure_probability = 0.0;
  c.poison_probability = 0.0;
  c.message_drop_probability = drop;
  c.message_duplicate_probability = dup;
  return c;
}

TEST(MailboxRecovery, DroppedMessageIsRetransmitted) {
  rt::dist::Communicator comm(2, rt::PerturbConfig{},
                              message_faults(3, /*drop=*/1.0, /*dup=*/0.0),
                              resil::WatchdogConfig{});
  const std::vector<char> payload{'h', 'i'};
  const auto ev = events_of([&] {
    comm.send(0, 1, rt::dist::make_tag(0, 1, 2, 3), payload);
    EXPECT_EQ(comm.recv(1, rt::dist::make_tag(0, 1, 2, 3)), payload);
  });
  EXPECT_EQ(ev.messages_dropped(), 1);
  EXPECT_EQ(ev.messages_recovered(), 1);
}

TEST(MailboxRecovery, DuplicatesAreSuppressedByEnvelopeId) {
  rt::dist::Communicator comm(2, rt::PerturbConfig{},
                              message_faults(5, /*drop=*/0.0, /*dup=*/1.0),
                              resil::WatchdogConfig{});
  const auto ev = events_of([&] {
    for (int i = 0; i < 3; ++i) {
      comm.send(0, 1, static_cast<std::uint64_t>(i),
                {static_cast<char>('a' + i)});
    }
    for (int i = 0; i < 3; ++i) {
      const auto p = comm.recv(1, static_cast<std::uint64_t>(i));
      ASSERT_EQ(p.size(), 1u);
      EXPECT_EQ(p[0], static_cast<char>('a' + i));
    }
  });
  EXPECT_EQ(ev.messages_duplicated(), 3);
  // Stats count logical sends, not injected copies.
  EXPECT_EQ(comm.stats().messages, 3);
}

TEST(MailboxRecovery, SeedSweepDeliversIdenticalPayloads) {
  // Under any drop/dup seed the delivered payload per tag must be exactly
  // what a fault-free run delivers, and every drop must be recovered.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    rt::dist::Communicator comm(2, rt::PerturbConfig{},
                                message_faults(seed, 0.4, 0.4),
                                resil::WatchdogConfig{});
    const auto ev = events_of([&] {
      for (std::uint32_t i = 0; i < 32; ++i) {
        std::vector<char> payload(8, static_cast<char>(i + seed));
        comm.send(0, 1, rt::dist::make_tag(1, i, 0, 0), std::move(payload));
      }
      for (std::uint32_t i = 0; i < 32; ++i) {
        const auto p = comm.recv(1, rt::dist::make_tag(1, i, 0, 0));
        ASSERT_EQ(p, std::vector<char>(8, static_cast<char>(i + seed)))
            << "seed " << seed << " message " << i;
      }
    });
    EXPECT_EQ(ev.messages_dropped(), ev.messages_recovered())
        << "seed " << seed;
  }
}

TEST(MailboxRecovery, AbortWakesBlockedReceiver) {
  rt::dist::Communicator comm(2, rt::PerturbConfig{}, FaultConfig{},
                              resil::WatchdogConfig{});
  std::atomic<bool> threw{false};
  std::thread receiver([&] {
    try {
      comm.recv(1, rt::dist::make_tag(0, 0, 0, 0));
    } catch (const ptlr::Error&) {
      threw.store(true, std::memory_order_release);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  comm.abort();
  receiver.join();
  EXPECT_TRUE(threw.load(std::memory_order_acquire));
}

TEST(MailboxWatchdog, DeadlockBecomesDescriptiveError) {
  resil::WatchdogConfig wd;
  wd.deadline_ms = 50;
  rt::dist::Communicator comm(2, rt::PerturbConfig{}, FaultConfig{}, wd);
  std::string what;
  const auto ev = events_of([&] {
    try {
      comm.recv(1, rt::dist::make_tag(0, 4, 2, 2));  // never sent
      FAIL() << "expected the receive watchdog to fire";
    } catch (const ptlr::Error& e) {
      what = e.what();
    }
  });
  EXPECT_NE(what.find("watchdog"), std::string::npos) << what;
  EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
  EXPECT_NE(what.find("tag"), std::string::npos) << what;
  EXPECT_EQ(ev.watchdog_fires(), 1);
}

// ---------------------------------------------------- faulted Cholesky ----

core::CholeskyConfig quiet_cholesky(int band) {
  core::CholeskyConfig cfg;
  cfg.acc = {1e-6, 1 << 30};
  cfg.band_size = band;
  cfg.nthreads = 2;
  cfg.faults = FaultConfig{};
  cfg.watchdog = resil::WatchdogConfig{};
  cfg.retry.backoff_us = 1;
  return cfg;
}

tlr::TlrMatrix problem_matrix(const stars::CovarianceProblem& prob, int b) {
  return tlr::TlrMatrix::from_problem(prob, b, {1e-6, 1 << 30}, 1);
}

bool bitwise_equal(const tlr::TlrMatrix& x, const tlr::TlrMatrix& y) {
  if (x.nt() != y.nt()) return false;
  for (int i = 0; i < x.nt(); ++i)
    for (int j = 0; j <= i; ++j) {
      if (tlr::tile_to_bytes(x.at(i, j)) != tlr::tile_to_bytes(y.at(i, j)))
        return false;
    }
  return true;
}

// The seeds the bitwise sweep runs: the PTLR_FAULTS environment config when
// the CI fault sweep provides one, else eight fixed seeds.
std::vector<FaultConfig> sweep_configs() {
  if (const char* env = std::getenv("PTLR_FAULTS");
      env != nullptr && env[0] != '\0') {
    const FaultConfig c = FaultConfig::parse(env);
    if (c.enabled) return {c};
  }
  std::vector<FaultConfig> v;
  for (std::uint64_t s = 1; s <= 8; ++s) v.push_back(FaultConfig::with_seed(s));
  return v;
}

TEST(CholeskyRecovery, FaultedFactorIsBitwiseIdentical) {
  const auto prob = stars::make_problem(stars::ProblemKind::kSt3DExp, 96);
  const tlr::TlrMatrix orig = problem_matrix(prob, 16);
  auto cfg = quiet_cholesky(/*band=*/2);

  tlr::TlrMatrix baseline = orig;
  const auto base_result = core::factorize(baseline, &prob, cfg);
  EXPECT_EQ(base_result.recovery.faults_injected(), 0);

  const auto configs = sweep_configs();
  long long injected_total = 0;
  for (const FaultConfig& faults : configs) {
    tlr::TlrMatrix a = orig;
    cfg.faults = faults;
    const auto result = core::factorize(a, &prob, cfg);
    // Exact accounting: injected == retries == recovered, per seed.
    EXPECT_EQ(result.recovery.faults_injected(), result.recovery.retries())
        << "seed " << faults.seed;
    EXPECT_EQ(result.recovery.retries(), result.recovery.tasks_recovered())
        << "seed " << faults.seed;
    // The acceptance criterion: recovery is exact, so the factor is
    // bitwise identical to the fault-free run's.
    EXPECT_TRUE(bitwise_equal(a, baseline)) << "seed " << faults.seed;
    injected_total += result.recovery.faults_injected();
    // Budget line for the CI sweep: one per seed, grep-able.
    std::printf("[resilience] seed=%llu injected=%lld retries=%lld\n",
                static_cast<unsigned long long>(faults.seed),
                static_cast<long long>(result.recovery.faults_injected()),
                static_cast<long long>(result.recovery.retries()));
  }
  // With eight seeds at the default probabilities some injections are
  // statistically certain; a single externally supplied seed may
  // legitimately draw zero faults, so only the internal sweep asserts.
  if (configs.size() > 1) {
    EXPECT_GT(injected_total, 0);
  }
}

TEST(CholeskyRecovery, EveryTaskCarriesRecoveryHooks) {
  // Every task of a real factorization declares its output tile. Checked
  // on the graph itself and through the default configuration's run: a
  // task's first attempt faults with certainty when it has hooks (and is
  // never injected without them), so injections must equal tasks.
  const auto prob = stars::make_problem(stars::ProblemKind::kSt3DExp, 128);
  const tlr::TlrMatrix orig = problem_matrix(prob, 32);
  {
    tlr::TlrMatrix a = orig;
    a.densify_band(2, &prob);
    const rt::TaskGraph g = core::build_cholesky_graph(a, {});
    for (rt::TaskId t = 0; t < g.size(); ++t)
      EXPECT_FALSE(g.info(t).outputs.empty()) << g.info(t).name;
  }
  tlr::TlrMatrix baseline = orig;
  core::CholeskyConfig cfg;
  cfg.acc = {1e-6, 1 << 30};
  cfg.band_size = 2;
  cfg.faults = FaultConfig{};
  cfg.watchdog = resil::WatchdogConfig{};
  core::factorize(baseline, &prob, cfg);

  tlr::TlrMatrix a = orig;
  cfg.faults = FaultConfig::with_seed(3);
  cfg.faults.task_exception_probability = 1.0;
  cfg.faults.alloc_failure_probability = 0.0;
  cfg.faults.poison_probability = 0.0;
  const auto result = core::factorize(a, &prob, cfg);
  EXPECT_EQ(result.recovery.faults_injected(), result.stats.tasks);
  EXPECT_EQ(result.recovery.tasks_recovered(), result.stats.tasks);
  EXPECT_TRUE(bitwise_equal(a, baseline));
}

TEST(CholeskyRecovery, NestedBandKernelsRecoverBitwise) {
  // b = 192 puts the dense band kernels above the nested-children cutoff:
  // the faulted band tasks had spawned children before their retry, and
  // recovery must still be exact.
  const auto prob = stars::make_problem(stars::ProblemKind::kSt3DExp, 576);
  const tlr::TlrMatrix orig = problem_matrix(prob, 192);
  core::CholeskyConfig cfg;
  cfg.acc = {1e-6, 1 << 30};
  cfg.band_size = 2;
  cfg.nthreads = 4;
  cfg.faults = FaultConfig{};
  cfg.watchdog = resil::WatchdogConfig{};
  cfg.retry.backoff_us = 1;

  tlr::TlrMatrix baseline = orig;
  const auto base = core::factorize(baseline, &prob, cfg);
  EXPECT_GT(base.exec.sched.nested_spawned, 0);

  tlr::TlrMatrix a = orig;
  cfg.faults = FaultConfig::with_seed(6);
  cfg.faults.task_exception_probability = 0.5;
  cfg.faults.alloc_failure_probability = 0.0;
  cfg.faults.poison_probability = 0.5;
  const auto result = core::factorize(a, &prob, cfg);
  EXPECT_GT(result.recovery.faults_injected(), 0);
  EXPECT_EQ(result.recovery.faults_injected(), result.recovery.retries());
  EXPECT_EQ(result.recovery.retries(), result.recovery.tasks_recovered());
  EXPECT_TRUE(bitwise_equal(a, baseline));
}

// ------------------------------------------------- numerical breakdown ----

// A covariance matrix made non-SPD on purpose: one diagonal entry in the
// second tile row is forced negative, so blocked POTRF must break down at
// a known global pivot.
tlr::TlrMatrix near_non_spd(const stars::CovarianceProblem& prob, int b,
                            int tile, int offset) {
  tlr::TlrMatrix m = problem_matrix(prob, b);
  m.at(tile, tile).dense_data()(offset, offset) = -1.0;
  return m;
}

TEST(Breakdown, FailPolicyReportsGlobalPivot) {
  const auto prob = stars::make_problem(stars::ProblemKind::kSt3DExp, 96);
  tlr::TlrMatrix a = near_non_spd(prob, 16, /*tile=*/1, /*offset=*/3);
  auto cfg = quiet_cholesky(/*band=*/2);
  try {
    core::factorize(a, nullptr, cfg);
    FAIL() << "expected a numerical breakdown";
  } catch (const ptlr::NumericalError& e) {
    // Entry (3,3) of tile (1,1): 1-based global pivot 16 + 4.
    EXPECT_EQ(e.info(), 20);
    EXPECT_NE(std::string(e.what()).find("global pivot 20"),
              std::string::npos)
        << e.what();
  }
}

TEST(Breakdown, ShiftAndRestartCompletes) {
  const auto prob = stars::make_problem(stars::ProblemKind::kSt3DExp, 96);
  const tlr::TlrMatrix poisoned = near_non_spd(prob, 16, 1, 3);
  tlr::TlrMatrix a = poisoned;
  auto cfg = quiet_cholesky(/*band=*/2);
  cfg.breakdown.action = resil::BreakdownPolicy::Action::kShiftAndRestart;
  cfg.breakdown.shift = 4.0;  // enough to dominate the -1 diagonal entry
  cfg.breakdown.max_restarts = 2;
  const auto result = core::factorize(a, nullptr, cfg);
  EXPECT_EQ(result.restarts, 1);
  EXPECT_DOUBLE_EQ(result.shift, 4.0);
  EXPECT_EQ(result.recovery.shifts(), 1);
  for (int i = 0; i < a.nt(); ++i)
    for (int j = 0; j <= i; ++j)
      EXPECT_TRUE(a.at(i, j).payload_finite()) << "tile " << i << "," << j;
}

TEST(Breakdown, ShiftAndRestartGivesUpAfterBudget) {
  const auto prob = stars::make_problem(stars::ProblemKind::kSt3DExp, 96);
  tlr::TlrMatrix a = near_non_spd(prob, 16, 1, 3);
  auto cfg = quiet_cholesky(/*band=*/2);
  cfg.breakdown.action = resil::BreakdownPolicy::Action::kShiftAndRestart;
  cfg.breakdown.shift = 1e-12;  // hopeless against a -1 diagonal entry
  cfg.breakdown.growth = 1.0;
  cfg.breakdown.max_restarts = 1;
  const auto ev = events_of([&] {
    EXPECT_THROW(core::factorize(a, nullptr, cfg), ptlr::NumericalError);
  });
  EXPECT_EQ(ev.shifts(), 1);
}

// --------------------------------------------------------- dense fallback ----

TEST(DenseFallback, GemmPastMaxrankDensifiesExactly) {
  Rng rng(17);
  auto make_lr = [&](int r) {
    auto m = dense::random_lowrank(24, 24, r, 1.0, rng);
    auto f = compress::compress(m.view(), {1e-12, 1 << 30});
    return tlr::Tile::make_lowrank(std::move(*f));
  };
  const tlr::Tile a = make_lr(5);
  const tlr::Tile b = make_lr(5);
  tlr::Tile c = make_lr(5);
  const dense::Matrix before = c.to_dense();

  // The exact update has rank up to 10; cap at 6 so recompression at a
  // tight tolerance cannot fit and must fall back to dense.
  const auto ev = events_of(
      [&] { hcore::gemm(a, b, c, compress::Accuracy{1e-12, 6}); });
  EXPECT_GE(ev.dense_fallbacks(), 1);
  ASSERT_TRUE(c.is_dense());

  dense::Matrix expect = before;
  dense::Matrix ad = a.to_dense(), bd = b.to_dense();
  dense::gemm(dense::Trans::N, dense::Trans::T, -1.0, ad.view(), bd.view(),
              1.0, expect.view());
  EXPECT_LT(dense::frob_diff(c.dense_data().view(), expect.view()), 1e-9);
}

TEST(DenseFallback, FactorizationSurvivesTinyMaxrank) {
  const auto prob = stars::make_problem(stars::ProblemKind::kSt3DExp, 96);
  tlr::TlrMatrix a = problem_matrix(prob, 16);
  auto cfg = quiet_cholesky(/*band=*/1);
  cfg.acc = {1e-10, 3};  // rank growth past 3 must densify, not truncate
  const auto result = core::factorize(a, &prob, cfg);
  EXPECT_GT(result.recovery.dense_fallbacks(), 0);
  for (int i = 0; i < a.nt(); ++i)
    for (int j = 0; j <= i; ++j)
      EXPECT_TRUE(a.at(i, j).payload_finite()) << "tile " << i << "," << j;
}

// --------------------------------------------------- distributed ranks ----

TEST(DistRecovery, DropsAndDuplicatesRecoverBitwise) {
  const auto prob = stars::make_problem(stars::ProblemKind::kSt3DExp, 96);
  const compress::Accuracy acc{1e-6, 1 << 30};
  const tlr::TlrMatrix orig = problem_matrix(prob, 16);
  const rt::TwoDBlockCyclic dist(2, 1);

  tlr::TlrMatrix baseline = orig;
  {
    ScopedEnv env("PTLR_FAULTS", nullptr);
    core::distributed_factorize(baseline, dist, acc);
  }

  long long faulted_total = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const std::string spec = "seed=" + std::to_string(seed) +
                             ",task=0,alloc=0,poison=0,drop=0.3,dup=0.3";
    ScopedEnv env("PTLR_FAULTS", spec.c_str());
    tlr::TlrMatrix a = orig;
    const auto result = core::distributed_factorize(a, dist, acc);
    EXPECT_EQ(result.recovery.messages_dropped(),
              result.recovery.messages_recovered())
        << "seed " << seed;
    EXPECT_TRUE(bitwise_equal(a, baseline)) << "seed " << seed;
    faulted_total += result.recovery.messages_dropped() +
                     result.recovery.messages_duplicated();
  }
  EXPECT_GT(faulted_total, 0);
}

// ------------------------------------- rank subgraphs on the executor ----
// Every rank runs its share of the one Cholesky task graph on rt::execute,
// so chaos mode (PTLR_PERTURB_SEED) perturbs the rank workers and
// PTLR_FAULTS task/poison faults hit the rank kernels, which recovery
// restores from their snapshots. Factors must stay bitwise equal to
// core::factorize, and the message count must equal the fault-free one:
// sends are tasks of their own, so a retried kernel never re-sends.

namespace {

struct RankCase {
  int nranks;
  bool band;  ///< band distribution (band 2) vs 2D block-cyclic
};
constexpr RankCase kRankCases[] = {{2, true}, {2, false}, {4, true},
                                   {4, false}};

std::unique_ptr<rt::Distribution> rank_dist(const RankCase& c) {
  const auto [p, q] = rt::square_grid(c.nranks);
  if (c.band) return std::make_unique<rt::BandDistribution>(p, q, 2);
  return std::make_unique<rt::TwoDBlockCyclic>(p, q);
}

/// The ranks' input (band 2 densified, as core::factorize prepares it) and
/// its shared-memory factor, both built with faults and chaos off.
struct RankProblem {
  tlr::TlrMatrix input;
  tlr::TlrMatrix oracle;
};

RankProblem rank_problem() {
  const ScopedEnv no_faults("PTLR_FAULTS", nullptr);
  const ScopedEnv no_chaos("PTLR_PERTURB_SEED", nullptr);
  const auto prob = stars::make_problem(stars::ProblemKind::kSt3DExp, 96);
  RankProblem rp{problem_matrix(prob, 16), problem_matrix(prob, 16)};
  rp.input.densify_band(2, &prob);
  core::factorize(rp.oracle, &prob, quiet_cholesky(/*band=*/2));
  return rp;
}

long long fault_free_messages(const tlr::TlrMatrix& input,
                              const rt::Distribution& dist) {
  const ScopedEnv no_faults("PTLR_FAULTS", nullptr);
  const ScopedEnv no_chaos("PTLR_PERTURB_SEED", nullptr);
  tlr::TlrMatrix a = input;
  return core::distributed_factorize(a, dist, {1e-6, 1 << 30})
      .comm.messages;
}

}  // namespace

// Chaos seeds 1-8 and task/poison fault seeds 1-4, one knob at a time.
TEST(DistRecovery, RankSubgraphsUnderChaosAndTaskFaultsMatchBitwise) {
  const RankProblem rp = rank_problem();
  std::vector<std::pair<const char*, std::string>> knobs;
  for (int seed = 1; seed <= 8; ++seed)
    knobs.emplace_back("PTLR_PERTURB_SEED", std::to_string(seed));
  for (int seed = 1; seed <= 4; ++seed)
    knobs.emplace_back("PTLR_FAULTS",
                       "seed=" + std::to_string(seed) +
                           ",task=0.2,alloc=0,poison=0.1,drop=0,dup=0");
  long long injected_total = 0;
  for (const RankCase& c : kRankCases) {
    const auto dist = rank_dist(c);
    const long long messages = fault_free_messages(rp.input, *dist);
    for (const auto& [name, value] : knobs) {
      const ScopedEnv no_faults("PTLR_FAULTS", nullptr);
      const ScopedEnv no_chaos("PTLR_PERTURB_SEED", nullptr);
      const ScopedEnv knob(name, value.c_str());
      tlr::TlrMatrix a = rp.input;
      const auto res = core::distributed_factorize(a, *dist, {1e-6, 1 << 30});
      const std::string where = std::to_string(c.nranks) + " ranks, " +
                                (c.band ? "band, " : "2d, ") + name + "=" +
                                value;
      EXPECT_TRUE(bitwise_equal(a, rp.oracle)) << where;
      EXPECT_EQ(res.recovery.faults_injected(), res.recovery.retries())
          << where;
      EXPECT_EQ(res.recovery.retries(), res.recovery.tasks_recovered())
          << where;
      EXPECT_EQ(res.comm.messages, messages) << where;
      injected_total += res.recovery.faults_injected();
    }
  }
  EXPECT_GT(injected_total, 0);
}

// ------------------------------------------------ rank-kill fault class ----

TEST(FaultConfig, KillKeyParsesAndValidates) {
  const FaultConfig c = FaultConfig::parse("seed=3,kill=0.5");
  EXPECT_TRUE(c.enabled);
  EXPECT_DOUBLE_EQ(c.rank_kill_probability, 0.5);
  // Whole-process death is opt-in: a bare seed leaves it at zero.
  EXPECT_DOUBLE_EQ(FaultConfig::parse("9").rank_kill_probability, 0.0);
  EXPECT_THROW(FaultConfig::parse("kill=1.5"), ptlr::Error);
  EXPECT_THROW(FaultConfig::parse("kill=often"), ptlr::Error);
}

TEST(FaultInjector, RankKillPlanIsDeterministicAndInRange) {
  FaultConfig cfg = FaultConfig::with_seed(5);
  cfg.rank_kill_probability = 1.0;
  const resil::FaultInjector a(cfg);
  const resil::FaultInjector b(cfg);
  const auto pa = a.rank_kill(4, 6);
  const auto pb = b.rank_kill(4, 6);
  ASSERT_TRUE(pa.has_value());
  ASSERT_TRUE(pb.has_value());
  // Every rank of the mesh computes the same plan from the seed alone.
  EXPECT_EQ(pa->victim, pb->victim);
  EXPECT_EQ(pa->step, pb->step);
  EXPECT_GE(pa->victim, 0);
  EXPECT_LT(pa->victim, 4);
  EXPECT_GE(pa->step, 0);
  EXPECT_LT(pa->step, 6);

  int differs = 0;
  for (std::uint64_t s = 1; s <= 16; ++s) {
    FaultConfig c = FaultConfig::with_seed(s);
    c.rank_kill_probability = 1.0;
    const auto plan = resil::FaultInjector(c).rank_kill(4, 6);
    ASSERT_TRUE(plan.has_value()) << "seed " << s;
    EXPECT_GE(plan->victim, 0);
    EXPECT_LT(plan->victim, 4);
    EXPECT_GE(plan->step, 0);
    EXPECT_LT(plan->step, 6);
    if (plan->victim != pa->victim || plan->step != pa->step) ++differs;
  }
  EXPECT_GT(differs, 0);  // different seeds pick different (victim, step)

  // Disabled injection and the default zero probability never kill.
  EXPECT_FALSE(resil::FaultInjector(FaultConfig{}).rank_kill(4, 6));
  EXPECT_FALSE(
      resil::FaultInjector(FaultConfig::with_seed(5)).rank_kill(4, 6));
}

// ----------------------------------------------------- tile checkpoints ----

// RAII checkpoint directory under /tmp.
class ScopedCkptDir {
 public:
  ScopedCkptDir() {
    char tmpl[] = "/tmp/ptlr-ckpt-test-XXXXXX";
    EXPECT_NE(mkdtemp(tmpl), nullptr);
    path_ = tmpl;
  }
  ~ScopedCkptDir() { std::system(("rm -rf '" + path_ + "'").c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<char> slurp_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void spit_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void poke_u64(std::vector<char>& bytes, std::size_t offset,
              std::uint64_t v) {
  ASSERT_GE(bytes.size(), offset + 8);
  std::memcpy(bytes.data() + offset, &v, 8);
}

TEST(Checkpoint, PolicyParsesSpecAndDirectory) {
  EXPECT_FALSE(core::CheckpointPolicy::parse(nullptr, nullptr).enabled());
  EXPECT_FALSE(core::CheckpointPolicy::parse("", "/x").enabled());
  EXPECT_FALSE(core::CheckpointPolicy::parse("off", nullptr).enabled());
  const auto p = core::CheckpointPolicy::parse("every:3", "/tmp/ck");
  EXPECT_TRUE(p.enabled());
  EXPECT_EQ(p.every, 3);
  EXPECT_EQ(p.path_of(2), "/tmp/ck/ptlr-ckpt.2.bin");
  EXPECT_EQ(core::CheckpointPolicy::parse("every:1", nullptr).dir, ".");
  EXPECT_THROW(core::CheckpointPolicy::parse("every:0", nullptr),
               ptlr::Error);
  EXPECT_THROW(core::CheckpointPolicy::parse("every:abc", nullptr),
               ptlr::Error);
  EXPECT_THROW(core::CheckpointPolicy::parse("sometimes", nullptr),
               ptlr::Error);
  EXPECT_THROW(core::CheckpointPolicy::parse("every:2000000", nullptr),
               ptlr::Error);
}

TEST(Checkpoint, SaveLoadRoundTripsOwnedTilesAndFrontier) {
  const auto prob = stars::make_problem(stars::ProblemKind::kSt3DExp, 96);
  const compress::Accuracy acc{1e-6, 1 << 30};
  const tlr::TlrMatrix orig = problem_matrix(prob, 16);
  const rt::TwoDBlockCyclic dist(2, 1);

  // Checkpoint a half-interesting state: the factorized matrix of rank 0.
  tlr::TlrMatrix factored = orig;
  {
    ScopedEnv env("PTLR_FAULTS", nullptr);
    core::distributed_factorize(factored, dist, acc);
  }

  ScopedCkptDir dir;
  const std::string path = dir.path() + "/ptlr-ckpt.0.bin";
  core::save_rank_checkpoint(path, factored, dist, /*rank=*/0,
                             /*frontier=*/3);
  EXPECT_EQ(core::peek_checkpoint_frontier(path), 3u);
  // Crash consistency: a completed save leaves no tmp file behind.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());

  tlr::TlrMatrix loaded = orig;
  EXPECT_EQ(core::load_rank_checkpoint(path, loaded, dist, /*rank=*/0), 3u);
  for (int i = 0; i < orig.nt(); ++i)
    for (int j = 0; j <= i; ++j) {
      const auto& want =
          dist.owner(i, j) == 0 ? factored.at(i, j) : orig.at(i, j);
      EXPECT_EQ(tlr::tile_to_bytes(loaded.at(i, j)),
                tlr::tile_to_bytes(want))
          << "tile (" << i << "," << j << ")";
    }

  // A missing checkpoint means replay-from-scratch, not an error.
  EXPECT_EQ(core::peek_checkpoint_frontier(dir.path() + "/absent.bin"), 0u);
  EXPECT_THROW(
      core::load_rank_checkpoint(dir.path() + "/absent.bin", loaded, dist, 0),
      ptlr::Error);
}

TEST(Checkpoint, RejectsMismatchedConfiguration) {
  const auto prob = stars::make_problem(stars::ProblemKind::kSt3DExp, 96);
  const tlr::TlrMatrix a = problem_matrix(prob, 16);
  const rt::TwoDBlockCyclic dist(2, 1);
  ScopedCkptDir dir;
  const std::string path = dir.path() + "/ptlr-ckpt.0.bin";
  core::save_rank_checkpoint(path, a, dist, 0, 2);

  // Wrong rank: the stored tiles belong to rank 0.
  tlr::TlrMatrix same = problem_matrix(prob, 16);
  EXPECT_THROW(core::load_rank_checkpoint(path, same, dist, 1), ptlr::Error);
  // Wrong tiling: a stale file from another run must not be replayed.
  tlr::TlrMatrix coarser = problem_matrix(prob, 32);
  EXPECT_THROW(core::load_rank_checkpoint(path, coarser, dist, 0),
               ptlr::Error);
}

TEST(Checkpoint, CorruptFilesRejectLoudlyWithoutOverallocation) {
  const auto prob = stars::make_problem(stars::ProblemKind::kSt3DExp, 96);
  const tlr::TlrMatrix a = problem_matrix(prob, 16);
  const rt::TwoDBlockCyclic dist(2, 1);
  ScopedCkptDir dir;
  const std::string good_path = dir.path() + "/ptlr-ckpt.0.bin";
  core::save_rank_checkpoint(good_path, a, dist, 0, 1);
  const std::vector<char> good = slurp_file(good_path);
  ASSERT_GT(good.size(), 80u);  // header (56 B) + first tile record

  const std::string bad_path = dir.path() + "/corrupt.bin";
  tlr::TlrMatrix scratch = problem_matrix(prob, 16);
  const auto expect_reject = [&](const std::vector<char>& bytes) {
    spit_file(bad_path, bytes);
    EXPECT_THROW(core::load_rank_checkpoint(bad_path, scratch, dist, 0),
                 ptlr::Error);
  };

  // Truncations at the header, mid-table and mid-payload.
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{8}, std::size_t{40}, std::size_t{55},
        std::size_t{70}, good.size() - 1})
    expect_reject(std::vector<char>(good.begin(),
                                    good.begin() + static_cast<long>(cut)));

  // Field bombs: each size field is bounds-checked against the real file
  // size BEFORE any allocation it controls (header layout: magic@0,
  // version@8, rank@16, nranks@24, nt@32, frontier@40, ntiles@48, then
  // {i, j, nbytes} tile records).
  std::vector<char> bytes = good;
  poke_u64(bytes, 0, 0x0123456789ABCDEFull);  // bad magic
  expect_reject(bytes);
  bytes = good;
  poke_u64(bytes, 8, 999);  // unsupported version
  expect_reject(bytes);
  bytes = good;
  poke_u64(bytes, 48, ~std::uint64_t{0});  // ntiles bomb
  expect_reject(bytes);
  bytes = good;
  poke_u64(bytes, 72, ~std::uint64_t{0});  // first tile's nbytes bomb
  expect_reject(bytes);
  bytes = good;
  poke_u64(bytes, 56, 1u << 20);  // tile index out of range
  expect_reject(bytes);
}

}  // namespace

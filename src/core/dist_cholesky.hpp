// Distributed-memory BAND-DENSE-TLR Cholesky over the transport seam.
//
// The Cholesky is defined once, by the task graph of
// core/cholesky_graph.hpp. Each rank runs its owned share of that graph
// (owner-computes) on rt::execute with one worker, and every REMOTE edge
// of Section VII-A becomes a message: a send task after the producing
// POTRF/TRSM broadcasts its tile to the owners of the tile's consumers —
// down a binomial tree (core/bcast_tree.hpp) or, under PTLR_BCAST=flat,
// one unicast per destination — and on each consumer rank an
// external-input receive task stands in for the producer. The rank's
// progress loop (core/tile_flow.hpp) receives and forwards the tiles and
// releases those tasks, which install them in the rank's replica. No
// task body blocks on the network, and
// sends sit outside the fault-retried kernel bodies, so executor faults
// (PTLR_FAULTS) and chaos (PTLR_PERTURB_SEED) reach the ranks without a
// message ever being repeated.
//
// Numerically identical to the shared-memory factorization (the same task
// bodies), which the tests assert tile-by-tile. The code is written
// against rt::dist::Transport only, so it runs over the in-process
// Communicator (distributed_factorize, N rank threads) and over the real
// socket mesh (distributed_factorize_rank, one OS process per rank, see
// src/net and tools/ptlr-launch).
#pragma once

#include <vector>

#include "compress/compress.hpp"
#include "core/checkpoint.hpp"
#include "core/tile_flow.hpp"
#include "resilience/fault.hpp"
#include "resilience/stats.hpp"
#include "runtime/distribution.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/transport.hpp"
#include "tlr/tlr_matrix.hpp"

namespace ptlr::core {

/// Outcome of a distributed factorization.
struct DistCholeskyResult {
  double seconds = 0.0;
  rt::dist::Communicator::Stats comm;  ///< real messages/bytes exchanged
  /// Recovery events over this run (message drops/duplicates injected by
  /// the communicator's fault config, and their recoveries).
  resil::RecoveryStats recovery;
  /// Per-rank communication-path counters (broadcast egress, tree
  /// forwards, arrivals that overlapped work, time waiting for tiles). One entry per rank
  /// for the in-process driver; exactly one entry — this endpoint's — for
  /// distributed_factorize_rank.
  std::vector<RankCommStats> rank_comm;
};

/// Factorize `a` in place with `nranks` ranks owning tiles per `dist`,
/// over the in-process transport. Each rank is a thread (plus its progress
/// loop) with a private replica of `a`; the owned tiles are copied back
/// into `a` at the end. `acc` controls low-rank recompression as in the
/// shared-memory path. `opts` selects the broadcast path; the default
/// reads PTLR_BCAST.
DistCholeskyResult distributed_factorize(
    tlr::TlrMatrix& a, const rt::Distribution& dist,
    const compress::Accuracy& acc,
    const DistCommOptions& opts = DistCommOptions::from_env());

/// Rank-death recovery knobs for one rank process of the socket backend.
/// Default-constructed = no checkpointing, first incarnation, no faults —
/// the pre-recovery behavior.
struct RankRecoveryOptions {
  /// Periodic tile checkpointing (PTLR_CKPT / PTLR_CKPT_DIR).
  CheckpointPolicy ckpt;
  /// Incarnation of this rank process: 0 = launched normally, >0 = the
  /// launcher respawned it after a crash (PTLR_EPOCH). A respawn loads its
  /// checkpoint (if any) and replays from the stored frontier; injected
  /// rank kills only fire at epoch 0, so a respawn cannot re-kill itself.
  int epoch = 0;
  /// Fault plan for the rank_kill class (PTLR_FAULTS "kill=<p>"). Message
  /// and task faults stay where they were (transport / executor); the
  /// whole-process kill is decided here because it is keyed on panels: it
  /// fires at the victim's first owned task of its planned step (or, when
  /// the victim owns none from that step on, before its drain).
  resil::FaultConfig faults;

  static RankRecoveryOptions from_env();
};

/// Run ONE rank of the factorization over `transport` — the entry point a
/// rank process of the socket backend calls. `a` is this process's replica
/// of the matrix: the tiles `dist` assigns to transport.rank() are
/// factored in place, and the factored tiles this rank receives are
/// installed in their slots (the other slots keep their input values; the
/// factored values live in the owning processes). Completes the
/// transport's drain barrier before returning, so wire-level stats are
/// final. Comm stats in the result are this endpoint's own sends.
///
/// With `recovery` enabled the rank checkpoints its tiles every
/// ckpt.every panels — a control task at frontier F waits for every owned
/// task of panels < F, flushes the transport and saves; all owned tasks of
/// later panels wait for it — and, when running as a respawn (epoch > 0),
/// restores them, re-broadcasts the factored tiles peers may have lost
/// with the old process, and runs only the tasks and receives of panels
/// from the checkpointed frontier on. The deterministic per-site
/// compression seeds make the replay bitwise identical to an
/// uninterrupted run.
DistCholeskyResult distributed_factorize_rank(
    tlr::TlrMatrix& a, const rt::Distribution& dist,
    const compress::Accuracy& acc, rt::dist::Transport& transport,
    const RankRecoveryOptions& recovery = {},
    const DistCommOptions& opts = DistCommOptions::from_env());

}  // namespace ptlr::core

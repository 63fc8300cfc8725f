// SUB bring-up and warm-boot snapshots for campaign runs.
//
// Every run of a campaign exposes its faults on a SUB in one steady state:
// OS booted, server started and serving. bring_up() is the one place that
// builds that state — compile the OS image, boot the kernel, build the
// SPECWeb file set, start the server and serve the deterministic warm-up
// (spec::warm_server) — and it returns the live SUB.
//
// A live SUB is one state source for a depbench::Controller; a snapshot is
// the other. Following ZOFI's clone-the-warmed-process model,
// capture_warm_boot() brings one SUB up per (OS version, server) cell and
// captures its complete machine + kernel + server-process state, and
// restore() rebuilds an identical SUB from that capture in O(memory copy):
// no MiniC compilation, no boot execution, no file-set regeneration (disk
// content is copy-on-write, so tasks share file bytes until they write). A
// used restored SUB returns to the capture in O(dirty)
// (depbench::Controller::reset).
//
// Bit-identity: a restored SUB resumes at the exact cycle/tick counters of
// the live SUB it was captured from, so a run on either produces the same
// results and the same observability artifacts (tests/test_snapshot.cpp).
#pragma once

#include <memory>
#include <string>

#include "os/api.h"
#include "os/kernel.h"
#include "spec/fileset.h"
#include "web/server.h"

namespace gf::snapshot {

/// Everything a campaign task needs to reconstruct a warmed SUB: kernel
/// state (machine memory, images, boot replay, disk, ticks) plus the
/// server's C++-side process image and the file-set shape. Plain data —
/// shared read-only across worker threads via shared_ptr<const>.
struct WarmSnapshot {
  os::KernelSnapshot kernel;
  web::ProcessImage server;
  std::string server_name;
  spec::FilesetConfig fileset;
  /// Guest cycles the captured bring-up consumed (boot + server start) —
  /// what every warm task *avoids* re-executing; exported as the
  /// snapshot.bringup_cycles gauge.
  std::uint64_t capture_cycles = 0;
};

/// One live SUB: the objects a campaign run drives. Each is heap-held so
/// its address is stable — the OsApi refers to the kernel, the server to
/// the OsApi, and the file set describes the kernel's disk.
struct Sub {
  std::unique_ptr<os::Kernel> kernel;
  std::unique_ptr<os::OsApi> api;
  std::unique_ptr<spec::Fileset> fileset;
  std::unique_ptr<web::WebServer> server;
};

/// Builds a SUB of `version` with a populated file set and server
/// `server_name`, then brings it up: OS reboot, server start, warm-up serve.
/// Throws std::runtime_error when the server fails to start on the pristine
/// OS.
Sub bring_up(os::OsVersion version, const std::string& server_name);

/// Rebuilds the SUB `snap` captured. Its kernel keeps `snap.kernel` as its
/// reset origin (os::Kernel::reset), so `snap` must outlive the SUB.
Sub restore(const WarmSnapshot& snap);

/// Brings up one SUB cell (see bring_up) and captures the warmed state.
std::shared_ptr<const WarmSnapshot> capture_warm_boot(
    os::OsVersion version, const std::string& server_name);

}  // namespace gf::snapshot

// Warm-boot snapshots for campaign iterations.
//
// A campaign task's bring-up — compile the OS image, boot the kernel, build
// the SPECWeb file set, start the server — is identical for every task of a
// (OS version, server) cell, yet the sharded runner used to repeat it per
// task and per iteration. Following ZOFI's clone-the-warmed-process model,
// this subsystem performs the bring-up ONCE per cell, captures the complete
// machine + kernel + server-process state right after server start and the
// deterministic warm-up serve (spec::warm_server), and lets
// every task reconstruct its private SUB from the shared snapshot in
// O(memory copy) — or reset a used one in place in O(dirty)
// (depbench::Controller::reset): no MiniC compilation, no boot execution,
// no file-set regeneration (disk content is copy-on-write, so tasks share
// file bytes until they write).
//
// Bit-identity: the capture sequence below mirrors, call for call, what a
// cold Controller does up to the first fault exposure (constructor bring-up,
// then reboot + server start at run entry), so the restored machine resumes
// at the exact cycle/tick counters a cold run would have — campaign results
// are bit-identical with snapshots on or off (tests/test_snapshot.cpp).
#pragma once

#include <memory>
#include <string>

#include "os/kernel.h"
#include "spec/fileset.h"
#include "web/server.h"

namespace gf::snapshot {

/// Everything a campaign task needs to reconstruct a warmed SUB: kernel
/// state (machine memory, images, boot replay, disk, ticks) plus the
/// server's C++-side process image and the file-set shape. Plain data —
/// shared read-only across shard threads via shared_ptr<const>.
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

/// Builds one cold SUB cell (kernel of `version`, populated file set,
/// server `server_name`), performs the run-entry bring-up (OS reboot +
/// server start), and captures the warmed state. Throws when the server
/// fails to start on the pristine OS.
std::shared_ptr<const WarmSnapshot> capture_warm_boot(
    os::OsVersion version, const std::string& server_name,
    const spec::FilesetConfig& fileset = {});

}  // namespace gf::snapshot
